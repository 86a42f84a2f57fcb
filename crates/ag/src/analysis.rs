//! The analysis pipeline: everything LINGUIST-86's overlays 2–4 compute.
//!
//! [`Analysis::run`] takes a built grammar through, in order:
//!
//! 1. implicit copy-rule insertion (§IV),
//! 2. the completeness check (§I),
//! 3. the sufficient non-circularity test (§I),
//! 4. alternating-pass assignment (§II),
//! 5. lifetime (temporary/significant) analysis (§III),
//! 6. static subsumption (§III),
//! 7. evaluation-plan construction (§II–III).
//!
//! The result owns the (possibly extended) grammar plus every analysis
//! product; it is the single input the evaluator and the code generator
//! need.

use crate::check::{check_completeness, CheckError};
use crate::circularity::{check_noncircular, Circularity, IoRelations};
use crate::grammar::Grammar;
use crate::implicit::{insert_implicit_copies, ImplicitStats};
use crate::lifetime::Lifetimes;
use crate::passes::{assign_passes, PassAssignment, PassConfig, PassError};
use crate::plan::{build_plans, PlanError, Plans};
use crate::subsumption::{GroupMode, Subsumption, SubsumptionCosts};
use std::fmt;

/// Configuration for the whole pipeline.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Pass-analysis settings (first direction, pass budget).
    pub pass: PassConfig,
    /// Whether to insert implicit copy-rules first (LINGUIST-86 always
    /// does; disable to reproduce "bare-bones" behaviour).
    pub skip_implicit: bool,
    /// Global-variable grouping mode for static subsumption.
    pub group_mode: GroupMode,
    /// Cost model for the keep-static check.
    pub costs: SubsumptionCosts,
    /// Disable static subsumption entirely (the paper's "without"
    /// timing/size comparison).
    pub disable_subsumption: bool,
    /// Run the grammar optimizer (constant folding, copy-chain
    /// collapsing, dead-attribute elimination) before scheduling. On by
    /// default, in the library and the CLI alike; `optimize: false`
    /// (the CLI's `--opt=off`) is the paper-faithful configuration the
    /// paper's figures are reproduced on.
    pub optimize: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            pass: PassConfig::default(),
            skip_implicit: false,
            group_mode: GroupMode::default(),
            costs: SubsumptionCosts::default(),
            disable_subsumption: false,
            optimize: true,
        }
    }
}

/// Everything known about an analyzed grammar.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The grammar, including any implicit copy-rules added.
    pub grammar: Grammar,
    /// How many implicit rules were inserted.
    pub implicit: ImplicitStats,
    /// Induced inherited→synthesized relations per symbol.
    pub io: IoRelations,
    /// The pass assignment.
    pub passes: PassAssignment,
    /// Attribute lifetimes.
    pub lifetimes: Lifetimes,
    /// The static-subsumption allocation.
    pub subsumption: Subsumption,
    /// Production-procedure plans per pass.
    pub plans: Plans,
    /// What the optimizer did, when [`Config::optimize`] was on.
    pub opt: Option<crate::dataflow::OptReport>,
}

/// A failure anywhere in the pipeline.
#[derive(Clone, Debug)]
pub enum AnalysisError {
    /// Completeness violations.
    Check(Vec<CheckError>),
    /// Potential circularity.
    Circular(Circularity),
    /// Not alternating-pass evaluable.
    Pass(PassError),
    /// Plan construction failed.
    Plan(PlanError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Check/Circular carry structured ids; the located, named
        // rendering lives in the lint layer (`linguist check`), so the
        // bare Display stays a one-line summary.
        match self {
            AnalysisError::Check(errs) => {
                let undefined = errs
                    .iter()
                    .filter(|e| matches!(e, CheckError::Undefined { .. }))
                    .count();
                let multiple = errs
                    .iter()
                    .filter(|e| matches!(e, CheckError::MultiplyDefined { .. }))
                    .count();
                let illegal = errs.len() - undefined - multiple;
                write!(
                    f,
                    "{} completeness error(s): {} never defined, {} multiply defined, \
                     {} illegal target(s); run `linguist check` for located diagnostics",
                    errs.len(),
                    undefined,
                    multiple,
                    illegal
                )
            }
            AnalysisError::Circular(c) => write!(
                f,
                "potential circularity in production {} ({} occurrences); \
                 run `linguist check` for the named cycle",
                c.prod.0,
                c.cycle.len()
            ),
            AnalysisError::Pass(e) => write!(f, "{}", e),
            AnalysisError::Plan(e) => write!(f, "{}", e),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<Vec<CheckError>> for AnalysisError {
    fn from(e: Vec<CheckError>) -> AnalysisError {
        AnalysisError::Check(e)
    }
}
impl From<Circularity> for AnalysisError {
    fn from(e: Circularity) -> AnalysisError {
        AnalysisError::Circular(e)
    }
}
impl From<PassError> for AnalysisError {
    fn from(e: PassError) -> AnalysisError {
        AnalysisError::Pass(e)
    }
}
impl From<PlanError> for AnalysisError {
    fn from(e: PlanError) -> AnalysisError {
        AnalysisError::Plan(e)
    }
}

impl Analysis {
    /// Run the full pipeline on `grammar`.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage as [`AnalysisError`].
    pub fn run(mut grammar: Grammar, cfg: &Config) -> Result<Analysis, AnalysisError> {
        let implicit = if cfg.skip_implicit {
            ImplicitStats::default()
        } else {
            insert_implicit_copies(&mut grammar)
        };
        check_completeness(&grammar)?;
        let mut io = check_noncircular(&grammar)?;
        let opt = if cfg.optimize {
            let report = crate::dataflow::optimize(&mut grammar);
            // The transforms only remove dependency edges, so the
            // grammar stays non-circular; recompute the relations the
            // scheduler and the lints will actually see.
            io = check_noncircular(&grammar)?;
            Some(report)
        } else {
            None
        };
        let passes = assign_passes(&grammar, &cfg.pass)?;
        let mut lifetimes = Lifetimes::compute(&grammar, &passes);
        if cfg.optimize {
            lifetimes.enable_record_elision();
        }
        let subsumption = if cfg.disable_subsumption {
            Subsumption::disabled(&grammar)
        } else {
            Subsumption::compute(&grammar, cfg.group_mode, cfg.costs, Some(&passes))
        };
        let plans = build_plans(&grammar, &passes)?;
        Ok(Analysis {
            grammar,
            implicit,
            io,
            passes,
            lifetimes,
            subsumption,
            plans,
            opt,
        })
    }

    /// Grammar statistics including the pass count.
    pub fn stats(&self) -> crate::stats::GrammarStats {
        crate::stats::GrammarStats::compute(&self.grammar, Some(&self.passes))
    }

    /// The full static profile: statistics, subsumption outcome, and
    /// planned pass directions.
    pub fn profile(&self) -> crate::stats::GrammarProfile {
        crate::stats::GrammarProfile::compute(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::grammar::AgBuilder;
    use crate::ids::AttrOcc;
    use crate::passes::Direction;

    fn lr_config() -> Config {
        Config {
            pass: PassConfig {
                first_direction: Direction::LeftToRight,
                max_passes: 8,
            },
            ..Config::default()
        }
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        b.synthesized(root, "V", "int");
        let s = b.nonterminal("S");
        let sv = b.synthesized(s, "V", "int");
        let x = b.terminal("x");
        let obj = b.intrinsic(x, "OBJ", "int");
        b.production(root, vec![s], None); // root.V implicit
        let p1 = b.production(s, vec![x], None);
        b.rule(p1, vec![AttrOcc::lhs(sv)], Expr::Occ(AttrOcc::rhs(0, obj)));
        b.start(root);
        let g = b.build().unwrap();

        let a = Analysis::run(g, &lr_config()).unwrap();
        assert_eq!(a.implicit.total(), 1);
        assert_eq!(a.passes.num_passes(), 1);
        assert_eq!(a.plans.num_passes(), 1);
        assert_eq!(a.stats().semantic_functions, 2);
    }

    #[test]
    fn incomplete_grammar_fails_check_stage() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        b.synthesized(s, "V", "int"); // never defined, nothing to copy from
        b.production(s, vec![], None);
        b.start(s);
        let g = b.build().unwrap();
        match Analysis::run(g, &lr_config()) {
            Err(AnalysisError::Check(errs)) => assert!(!errs.is_empty()),
            other => panic!("expected check failure, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn circular_grammar_fails_circularity_stage() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let a = b.synthesized(s, "A", "int");
        let c = b.synthesized(s, "B", "int");
        let p = b.production(s, vec![], None);
        b.rule(p, vec![AttrOcc::lhs(a)], Expr::Occ(AttrOcc::lhs(c)));
        b.rule(p, vec![AttrOcc::lhs(c)], Expr::Occ(AttrOcc::lhs(a)));
        b.start(s);
        let g = b.build().unwrap();
        assert!(matches!(
            Analysis::run(g, &lr_config()),
            Err(AnalysisError::Circular(_))
        ));
    }

    #[test]
    fn disabled_subsumption_marks_nothing_static() {
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        b.synthesized(root, "V", "int");
        let s = b.nonterminal("S");
        let sv = b.synthesized(s, "V", "int");
        let p1 = b.production(root, vec![s], None);
        let _ = p1;
        let p2 = b.production(s, vec![], None);
        b.rule(p2, vec![AttrOcc::lhs(sv)], Expr::Int(1));
        b.start(root);
        let g = b.build().unwrap();
        let cfg = Config {
            disable_subsumption: true,
            ..lr_config()
        };
        let a = Analysis::run(g, &cfg).unwrap();
        let stats = a.subsumption.stats(&a.grammar);
        assert_eq!(stats.static_attrs, 0);
        assert_eq!(stats.subsumed_rules, 0);
    }

    #[test]
    fn error_display_is_informative() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        b.synthesized(s, "V", "int");
        b.production(s, vec![], None);
        b.start(s);
        let g = b.build().unwrap();
        let err = Analysis::run(g, &lr_config()).unwrap_err();
        assert!(err.to_string().contains("completeness"));
    }
}
