//! Copy-chain collapsing: forward transitive copies within a
//! production.
//!
//! The paper's static subsumption removes copy-rules by allocating
//! same-named attributes to one global; chains it misses (renames,
//! mixed classes, cost-model rejections) survive as the AG004 residue.
//! This transform attacks the residue structurally: inside one
//! production, an occurrence defined by a copy-rule always holds the
//! same value as the copy's source occurrence — both live on the same
//! node instance — so every *read* of the copied occurrence can be
//! forwarded to the chain's root. Intermediate links lose their
//! readers and fall to dead-rule elimination; the paper's subsumption
//! then sees shorter, more uniform chains.

use crate::expr::Expr;
use crate::grammar::Grammar;
use crate::ids::{AttrOcc, OccPos, ProdId, RuleId};
use std::collections::{HashMap, HashSet};

/// What the collapse did, for the report and the lints.
#[derive(Clone, Debug, Default)]
pub struct CollapseOutcome {
    /// Reads forwarded past at least one copy link, per production.
    pub forwarded: Vec<(ProdId, usize)>,
}

/// Resolve `occ` through the production's copy-definitions towards the
/// root of its chain. With `in_order`, the walk stops before a link on
/// a right-hand-side child other than `occ`'s own node: the parent's
/// and the limb's records are in hand when the procedure starts, but a
/// child's record arrives only in traversal order, so forwarding such a
/// read onto another child adds an ordering constraint the original
/// read did not have — and can cost a pass. The visited set guards
/// against copy cycles (rejected by the circularity check, but this
/// transform must not rely on running after it).
fn chain_root(mut occ: AttrOcc, copy_of: &HashMap<AttrOcc, AttrOcc>, in_order: bool) -> AttrOcc {
    let start = occ.pos;
    let mut visited = vec![occ];
    while let Some(&src) = copy_of.get(&occ) {
        let other_child = in_order && matches!(src.pos, OccPos::Rhs(_)) && src.pos != start;
        if other_child || visited.contains(&src) {
            break;
        }
        occ = src;
        visited.push(occ);
    }
    occ
}

/// Rewrite every occurrence read in `e` through `copy_of`, counting
/// the reads that actually moved.
fn forward(e: &mut Expr, copy_of: &HashMap<AttrOcc, AttrOcc>, in_order: bool, moved: &mut usize) {
    match e {
        Expr::Occ(o) => {
            let root = chain_root(*o, copy_of, in_order);
            if root != *o {
                *o = root;
                *moved += 1;
            }
        }
        Expr::Int(_) | Expr::Bool(_) | Expr::Str(_) | Expr::Const(_) => {}
        Expr::Call { args, .. } => {
            for a in args {
                forward(a, copy_of, in_order, moved);
            }
        }
        Expr::Binop { lhs, rhs, .. } => {
            forward(lhs, copy_of, in_order, moved);
            forward(rhs, copy_of, in_order, moved);
        }
        Expr::If {
            branches,
            otherwise,
        } => {
            for (c, arm) in branches {
                forward(c, copy_of, in_order, moved);
                for a in arm {
                    forward(a, copy_of, in_order, moved);
                }
            }
            for a in otherwise {
                forward(a, copy_of, in_order, moved);
            }
        }
    }
}

/// The rules of one production whose reads must keep traversal order:
/// those defining a child's or the limb's attributes, and every rule
/// whose value such a rule reads, directly or through parent
/// attributes. The rest define parent attributes only the parent
/// consumes, after this procedure returns, so they may read any child.
fn ordered_rules(g: &Grammar, rules: &[RuleId]) -> HashSet<RuleId> {
    let mut ordered: HashSet<RuleId> = rules
        .iter()
        .copied()
        .filter(|&r| g.rule(r).targets.iter().any(|t| t.pos != OccPos::Lhs))
        .collect();
    loop {
        let read: HashSet<AttrOcc> = ordered
            .iter()
            .flat_map(|&r| g.rule(r).expr.arguments())
            .collect();
        let before = ordered.len();
        ordered.extend(
            rules
                .iter()
                .copied()
                .filter(|&r| g.rule(r).targets.iter().any(|t| read.contains(t))),
        );
        if ordered.len() == before {
            return ordered;
        }
    }
}

/// Collapse copy chains in every production of `g`.
pub fn collapse_copy_chains(g: &mut Grammar) -> CollapseOutcome {
    let mut out = CollapseOutcome::default();
    for pi in 0..g.productions().len() {
        let pid = ProdId(pi as u32);
        // Map each copy-defined occurrence to its source occurrence.
        let mut copy_of: HashMap<AttrOcc, AttrOcc> = HashMap::new();
        for &r in &g.production(pid).rules {
            let rule = g.rule(r);
            if let (Some(src), [target]) = (rule.copy_source(), rule.targets.as_slice()) {
                copy_of.insert(*target, src);
            }
        }
        if copy_of.is_empty() {
            continue;
        }
        let mut moved = 0usize;
        let rule_ids: Vec<RuleId> = g.production(pid).rules.clone();
        let in_order = ordered_rules(g, &rule_ids);
        for r in rule_ids {
            // A copy-rule's own read forwards too: `t = s, s = u`
            // becomes `t = u, s = u`.
            let rule = g.rule_mut(r);
            forward(&mut rule.expr, &copy_of, in_order.contains(&r), &mut moved);
        }
        if moved > 0 {
            out.forwarded.push((pid, moved));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::AgBuilder;
    use crate::ids::AttrId;

    #[test]
    fn chains_forward_to_their_root() {
        // One production: S.A = x.OBJ (copy), S.B = S.A (copy),
        // S.C = S.B + 1. After collapsing, S.B reads x.OBJ and S.C
        // reads S.B's root... i.e. x.OBJ.
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let a = b.synthesized(s, "A", "int");
        let bb = b.synthesized(s, "B", "int");
        let c = b.synthesized(s, "C", "int");
        let x = b.terminal("x");
        let obj = b.intrinsic(x, "OBJ", "int");
        let p = b.production(s, vec![x], None);
        b.rule(p, vec![AttrOcc::lhs(a)], Expr::Occ(AttrOcc::rhs(0, obj)));
        b.rule(p, vec![AttrOcc::lhs(bb)], Expr::Occ(AttrOcc::lhs(a)));
        b.rule(
            p,
            vec![AttrOcc::lhs(c)],
            Expr::binop(
                crate::expr::BinOp::Add,
                Expr::Occ(AttrOcc::lhs(bb)),
                Expr::Int(1),
            ),
        );
        b.start(s);
        let mut g = b.build().unwrap();
        let outcome = collapse_copy_chains(&mut g);
        assert_eq!(outcome.forwarded, vec![(ProdId(0), 2)]);
        // S.B now copies straight from x.OBJ.
        assert_eq!(g.rule(RuleId(1)).expr, Expr::Occ(AttrOcc::rhs(0, obj)));
        // S.C's read forwarded to the chain root as well.
        assert_eq!(
            g.rule(RuleId(2)).expr,
            Expr::binop(
                crate::expr::BinOp::Add,
                Expr::Occ(AttrOcc::rhs(0, obj)),
                Expr::Int(1),
            )
        );
    }

    #[test]
    fn inherited_reads_are_not_forwarded_onto_a_later_child() {
        // N0 = N1 t: N0.V = t.OBJ (copy), N1.C = N0.V + 5. Forwarding
        // N1.C's read onto t.OBJ would make child 0's inherited value
        // wait for child 1's record and cost a left-to-right pass; a
        // read of the parent's own attribute has no such constraint.
        let mut b = AgBuilder::new();
        let n = b.nonterminal("N");
        let v = b.synthesized(n, "V", "int");
        let c = b.inherited(n, "C", "int");
        let t = b.terminal("t");
        let obj = b.intrinsic(t, "OBJ", "int");
        let p = b.production(n, vec![n, t], None);
        b.rule(p, vec![AttrOcc::lhs(v)], Expr::Occ(AttrOcc::rhs(1, obj)));
        let plus_five = |e| Expr::binop(crate::expr::BinOp::Add, e, Expr::Int(5));
        b.rule(
            p,
            vec![AttrOcc::rhs(0, c)],
            plus_five(Expr::Occ(AttrOcc::lhs(v))),
        );
        let s = b.nonterminal("S");
        let top = b.production(s, vec![n], None);
        b.rule(top, vec![AttrOcc::rhs(0, c)], Expr::Int(0));
        b.start(s);
        let mut g = b.build().unwrap();
        let outcome = collapse_copy_chains(&mut g);
        assert!(outcome.forwarded.is_empty(), "{:?}", outcome.forwarded);
        assert_eq!(
            g.rule(RuleId(1)).expr,
            plus_five(Expr::Occ(AttrOcc::lhs(v)))
        );
    }

    #[test]
    fn copy_cycles_do_not_hang() {
        // A <-> B copy cycle (circular, but the transform must still
        // terminate if handed such a grammar).
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let a = b.synthesized(s, "A", "int");
        let bb = b.synthesized(s, "B", "int");
        let p = b.production(s, vec![], None);
        b.rule(p, vec![AttrOcc::lhs(a)], Expr::Occ(AttrOcc::lhs(bb)));
        b.rule(p, vec![AttrOcc::lhs(bb)], Expr::Occ(AttrOcc::lhs(a)));
        b.start(s);
        let mut g = b.build().unwrap();
        let _ = collapse_copy_chains(&mut g);
        let _ = AttrId(0);
    }
}
