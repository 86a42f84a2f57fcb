//! The grammar optimizer: a monotone dataflow framework over the
//! attribute dependency graph, plus the transforms built on it.
//!
//! [`optimize`] rewrites an analyzed grammar *before* pass scheduling:
//!
//! 1. **constant propagation/folding** ([`constprop`]) — attributes
//!    every rule defines as one provably crash-free constant are
//!    materialized as literals at each use site;
//! 2. **copy-chain collapsing** ([`copychain`]) — reads of
//!    within-production copy targets are forwarded to the chain root,
//!    shrinking the AG004 residue the paper's subsumption misses;
//! 3. **dead-attribute/dead-rule elimination** ([`liveness`]) —
//!    attributes whose values cannot reach any output lose their rules
//!    and their storage slots (the teeth behind AG001).
//!
//! Running before scheduling is the point: folded reads and deleted
//! rules remove dependency edges, so the alternating-pass assignment,
//! the lifetime split, and static subsumption all see the smaller
//! grammar — fewer passes means fewer APT records written per node,
//! which is the evaluator's dominant cost.
//!
//! The framework itself ([`graph`]) is reusable: analyses implement
//! [`Lattice`] and [`Transfer`] and share one worklist solver; see the
//! termination argument in that module's docs.

pub mod constprop;
pub mod copychain;
pub mod graph;
pub mod liveness;

pub use constprop::{Abs, ConstProp, ConstVal};
pub use copychain::collapse_copy_chains;
pub use graph::{solve, AttrDepGraph, Direction, Lattice, Transfer};
pub use liveness::{Live, Liveness};

use crate::grammar::Grammar;
use crate::ids::{AttrId, ProdId, RuleId};

/// Which transform produced a note.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptKind {
    /// Constant propagation/folding (AG013).
    Folded,
    /// Dead-attribute/dead-rule elimination (AG014).
    Eliminated,
    /// Copy-chain collapsing (AG015).
    Collapsed,
}

/// One reportable optimizer decision, anchored to a grammar entity so
/// the lint layer can attach a source span.
#[derive(Clone, Debug)]
pub struct OptNote {
    /// Which transform.
    pub kind: OptKind,
    /// The production involved, if the note is per-production.
    pub prod: Option<ProdId>,
    /// The attribute involved, if the note is per-attribute.
    pub attr: Option<AttrId>,
    /// Name-resolved human text (without the code prefix).
    pub message: String,
}

/// Everything the optimizer did to one grammar.
#[derive(Clone, Debug, Default)]
pub struct OptReport {
    /// `Occ` reads replaced by materialized literals.
    pub folded_uses: usize,
    /// Rules whose whole right-hand side became a literal.
    pub folded_rules: usize,
    /// Reads forwarded past copy chains.
    pub collapsed_copies: usize,
    /// Rules deleted by dead-rule elimination.
    pub eliminated_rules: usize,
    /// Attributes detached from their symbols.
    pub eliminated_attrs: usize,
    /// Per-decision notes for the AG013–AG015 lints.
    pub notes: Vec<OptNote>,
    /// Old → new rule ids from dead-rule compaction (length: the
    /// pre-elimination rule count). Side tables indexed by `RuleId`
    /// must be remapped through this.
    pub rule_remap: Vec<Option<RuleId>>,
}

impl OptReport {
    /// Whether any transform changed the grammar.
    pub fn changed(&self) -> bool {
        self.folded_uses > 0
            || self.collapsed_copies > 0
            || self.eliminated_rules > 0
            || self.eliminated_attrs > 0
    }
}

/// Run all transforms on `g`, in order.
///
/// The caller is responsible for having checked completeness and
/// non-circularity first; every transform preserves both (transforms
/// only remove dependency edges, rules, and required targets).
pub fn optimize(g: &mut Grammar) -> OptReport {
    let mut report = OptReport::default();

    // 1. Constant propagation + folding.
    let graph = AttrDepGraph::build(g);
    let cp = ConstProp::new(&graph);
    let facts = solve(g, &graph, &cp);
    let fold = constprop::fold_constants(g, &facts);
    report.folded_rules = fold.materialized_rules;
    for (a, n) in &fold.folded_uses {
        report.folded_uses += n;
        let val = match &facts[a.0 as usize] {
            Abs::Const(ConstVal::Int(i)) => i.to_string(),
            Abs::Const(ConstVal::Bool(b)) => b.to_string(),
            Abs::Const(ConstVal::Str(s)) => format!("{:?}", s),
            Abs::Const(ConstVal::Sym(n)) => g.resolve(*n).to_owned(),
            _ => "?".to_owned(),
        };
        report.notes.push(OptNote {
            kind: OptKind::Folded,
            prod: None,
            attr: Some(*a),
            message: format!(
                "{}.{} is the constant {}; {} read(s) materialized as literals",
                g.symbol_name(g.attr(*a).symbol),
                g.attr_name(*a),
                val,
                n
            ),
        });
    }

    // 2. Copy-chain collapsing.
    let collapse = collapse_copy_chains(g);
    for (p, n) in &collapse.forwarded {
        report.collapsed_copies += n;
        report.notes.push(OptNote {
            kind: OptKind::Collapsed,
            prod: Some(*p),
            attr: None,
            message: format!(
                "production {} ({}): {} read(s) forwarded past copy chains",
                p.0,
                g.symbol_name(g.production(*p).lhs),
                n
            ),
        });
    }

    // 3. Dead-rule / dead-attribute elimination.
    let graph = AttrDepGraph::build(g);
    let lv = Liveness::new(&graph);
    let live = solve(g, &graph, &lv);
    let elim = liveness::eliminate_dead(g, &live);
    report.eliminated_rules = elim.deleted_rules;
    report.eliminated_attrs = elim.detached.len();
    for a in &elim.detached {
        report.notes.push(OptNote {
            kind: OptKind::Eliminated,
            prod: None,
            attr: Some(*a),
            message: format!(
                "{}.{} cannot reach any output; removed from storage and schedule",
                g.symbol_name(g.attr(*a).symbol),
                g.attr_name(*a),
            ),
        });
    }
    report.rule_remap = elim.rule_remap;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::grammar::AgBuilder;
    use crate::ids::AttrOcc;

    /// root.V = S.C; S.A = 2; S.B = S.A + 3; S.C = S.B; S.DEAD = x.OBJ.
    fn sample() -> Grammar {
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        let rv = b.synthesized(root, "V", "int");
        let s = b.nonterminal("S");
        let sa = b.synthesized(s, "A", "int");
        let sb = b.synthesized(s, "B", "int");
        let sc = b.synthesized(s, "C", "int");
        let sd = b.synthesized(s, "DEAD", "int");
        let x = b.terminal("x");
        let obj = b.intrinsic(x, "OBJ", "int");
        let p0 = b.production(root, vec![s], None);
        b.rule(p0, vec![AttrOcc::lhs(rv)], Expr::Occ(AttrOcc::rhs(0, sc)));
        let p1 = b.production(s, vec![x], None);
        b.rule(p1, vec![AttrOcc::lhs(sa)], Expr::Int(2));
        b.rule(
            p1,
            vec![AttrOcc::lhs(sb)],
            Expr::binop(
                crate::expr::BinOp::Add,
                Expr::Occ(AttrOcc::lhs(sa)),
                Expr::Int(3),
            ),
        );
        b.rule(p1, vec![AttrOcc::lhs(sc)], Expr::Occ(AttrOcc::lhs(sb)));
        b.rule(p1, vec![AttrOcc::lhs(sd)], Expr::Occ(AttrOcc::rhs(0, obj)));
        b.start(root);
        b.build().unwrap()
    }

    #[test]
    fn end_to_end_fold_collapse_eliminate() {
        let mut g = sample();
        let report = optimize(&mut g);
        assert!(report.changed());
        assert!(report.folded_uses >= 3, "A, B, C reads all fold");
        assert!(report.eliminated_rules >= 1, "DEAD's rule dies");
        assert!(report.eliminated_attrs >= 1, "DEAD detaches");
        // The output rule is now a materialized literal.
        let root_rule = g
            .rules()
            .iter()
            .find(|r| r.prod == ProdId(0))
            .expect("root rule survives");
        assert_eq!(root_rule.expr, Expr::Int(5));
        // The whole constant chain became dead and was removed.
        assert_eq!(g.rules().len(), 1);
    }

    #[test]
    fn optimize_is_idempotent() {
        let mut g = sample();
        let _ = optimize(&mut g);
        let second = optimize(&mut g);
        assert!(!second.changed(), "second run finds nothing: {:?}", second);
    }
}
