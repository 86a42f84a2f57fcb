//! Temporary vs significant attributes (§III).
//!
//! "An obvious \[optimization\] is to reduce the amount of data transferred
//! between the intermediate files and memory by not writing any instances
//! of attributes that are defined during this pass but never referenced
//! after this pass." Following Saarinen's split, an attribute is
//! **significant** if it is referenced in a later pass than the one in
//! which it is defined; otherwise it is **temporary** and lives only in
//! the stack-resident locals of the production-procedures.
//!
//! An attribute's *earliest* pass is the pass that defines it (0 for
//! intrinsics, which the parser defines); its *latest* pass is the last
//! pass in which any semantic function reads it. Synthesized attributes of
//! the start symbol are the translation's results, so their lifetime is
//! pinned past the final pass. The node record written at the boundary
//! between pass `k` and `k+1` carries exactly the attributes alive across
//! that boundary: the symbol's [`Lifetimes::layout`] at `k`.

use crate::grammar::{AttrClass, Grammar};
use crate::ids::{AttrId, SymbolId};
use crate::passes::PassAssignment;

/// Computed lifetimes for every attribute.
#[derive(Clone, Debug)]
pub struct Lifetimes {
    earliest: Vec<u16>,
    latest: Vec<u16>,
    /// Whether terminal records carrying no live attributes are elided
    /// from the intermediate files entirely (the optimizer's storage
    /// transform; off by default so the paper-faithful record counts
    /// are reproduced). Writers and readers share this struct, so both
    /// sides of every boundary agree on which records exist.
    elide_empty: bool,
    /// `layouts[boundary][symbol]`: see [`Lifetimes::layout`].
    layouts: Vec<Vec<Vec<(u32, usize)>>>,
}

impl Lifetimes {
    /// Compute lifetimes from the pass assignment.
    pub fn compute(g: &Grammar, passes: &PassAssignment) -> Lifetimes {
        let n = g.attrs().len();
        let num_passes = passes.num_passes() as u16;
        let mut earliest = vec![0u16; n];
        let mut latest = vec![0u16; n];
        for (ai, _) in g.attrs().iter().enumerate() {
            let a = AttrId(ai as u32);
            earliest[ai] = passes.pass_of(a);
            latest[ai] = earliest[ai]; // defined-but-unused = temporary
        }
        for (ri, rule) in g.rules().iter().enumerate() {
            let rp = passes.rule_pass(crate::ids::RuleId(ri as u32));
            for arg in rule.arguments() {
                let slot = &mut latest[arg.attr.0 as usize];
                if rp > *slot {
                    *slot = rp;
                }
            }
        }
        // Root outputs survive to the very end.
        for &a in &g.symbol(g.start()).attrs {
            if g.attr(a).class == AttrClass::Synthesized {
                latest[a.0 as usize] = num_passes + 1;
            }
        }
        let mut lt = Lifetimes {
            earliest,
            latest,
            elide_empty: false,
            layouts: Vec::new(),
        };
        lt.layouts = (0..=num_passes)
            .map(|k| {
                g.symbols()
                    .iter()
                    .map(|sym| {
                        let mut rows: Vec<(u32, usize)> = sym
                            .attrs
                            .iter()
                            .filter(|&&a| lt.alive_across(a, k))
                            .map(|&a| (a.0, g.slot(a)))
                            .collect();
                        rows.sort_unstable();
                        rows
                    })
                    .collect()
            })
            .collect();
        lt
    }

    /// The record layout of `sym` at `boundary`: `(attr, slot)` for each of
    /// its attributes alive across that boundary, sorted by attribute id.
    /// A node record written at the boundary carries exactly these
    /// attributes, in this order, read from these slots of the node's
    /// frame (see [`Grammar::attr_slots`]).
    pub fn layout(&self, sym: SymbolId, boundary: u16) -> &[(u32, usize)] {
        &self.layouts[boundary as usize][sym.0 as usize]
    }

    /// Turn on terminal-record elision (see [`Lifetimes::elides`]).
    /// Called by the analysis pipeline when the grammar optimizer ran:
    /// dead-attribute elimination empties terminals' storage, and an
    /// empty terminal record is pure framing the evaluator can skip.
    pub fn enable_record_elision(&mut self) {
        self.elide_empty = true;
    }

    /// Whether terminal-record elision is on.
    pub fn record_elision(&self) -> bool {
        self.elide_empty
    }

    /// Whether `sym`'s records are elided from the intermediate file at
    /// `boundary`: elision is on, `sym` is a terminal, and none of its
    /// stored attributes is alive across that boundary (punctuation
    /// terminals qualify everywhere; a `NUMBER.VAL`-style carrier drops
    /// out of the stream once its last reader has run). Nonterminals
    /// are never elided — their records are the visit skeleton.
    pub fn elides(&self, g: &Grammar, sym: SymbolId, boundary: u16) -> bool {
        self.elide_empty
            && g.symbol(sym).kind == crate::grammar::SymbolKind::Terminal
            && self.layout(sym, boundary).is_empty()
    }

    /// The pass defining `a` (0 for intrinsics).
    pub fn earliest(&self, a: AttrId) -> u16 {
        self.earliest[a.0 as usize]
    }

    /// The last pass referencing `a` (never below its earliest).
    pub fn latest(&self, a: AttrId) -> u16 {
        self.latest[a.0 as usize]
    }

    /// Saarinen's split: significant attributes outlive their defining
    /// pass; temporary ones never leave the stack.
    pub fn is_significant(&self, a: AttrId) -> bool {
        self.latest[a.0 as usize] > self.earliest[a.0 as usize]
    }

    /// Whether `a`'s instance travels in the APT file written at the end
    /// of pass `boundary` (boundary 0 = the parser-built initial file).
    pub fn alive_across(&self, a: AttrId, boundary: u16) -> bool {
        self.earliest[a.0 as usize] <= boundary && self.latest[a.0 as usize] > boundary
    }

    /// Number of evaluation passes the lifetimes were computed for.
    pub fn num_passes(&self) -> u16 {
        self.layouts.len() as u16 - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::grammar::AgBuilder;
    use crate::ids::AttrOcc;
    use crate::passes::{assign_passes, Direction, PassConfig};

    /// Grammar where B.V is produced in pass 1 and consumed in pass 2.
    fn two_pass_grammar() -> (Grammar, PassAssignment) {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let sv = b.synthesized(s, "V", "int");
        let a = b.nonterminal("A");
        let ai = b.inherited(a, "I", "int");
        let av = b.synthesized(a, "V", "int");
        let bb = b.nonterminal("B");
        let bv = b.synthesized(bb, "V", "int");
        let x = b.terminal("x");
        let obj = b.intrinsic(x, "OBJ", "int");
        let p0 = b.production(s, vec![a, bb], None);
        b.rule(
            p0,
            vec![AttrOcc::rhs(0, ai)],
            Expr::Occ(AttrOcc::rhs(1, bv)),
        );
        b.rule(p0, vec![AttrOcc::lhs(sv)], Expr::Occ(AttrOcc::rhs(0, av)));
        let p1 = b.production(a, vec![x], None);
        b.rule(p1, vec![AttrOcc::lhs(av)], Expr::Occ(AttrOcc::lhs(ai)));
        let p2 = b.production(bb, vec![x], None);
        b.rule(p2, vec![AttrOcc::lhs(bv)], Expr::Occ(AttrOcc::rhs(0, obj)));
        b.start(s);
        let g = b.build().unwrap();
        let pa = assign_passes(
            &g,
            &PassConfig {
                first_direction: Direction::LeftToRight,
                max_passes: 8,
            },
        )
        .unwrap();
        (g, pa)
    }

    #[test]
    fn cross_pass_attribute_is_significant() {
        let (g, pa) = two_pass_grammar();
        let lt = Lifetimes::compute(&g, &pa);
        let bv = g.attr_by_name(g.symbol_by_name("B").unwrap(), "V").unwrap();
        assert_eq!(pa.pass_of(bv), 1);
        // B.V is read by the A.I rule which runs in pass 2.
        assert_eq!(lt.latest(bv), 2);
        assert!(lt.is_significant(bv));
        assert!(lt.alive_across(bv, 1));
        assert!(!lt.alive_across(bv, 0), "not defined before pass 1");
        assert!(!lt.alive_across(bv, 2), "not referenced after pass 2");
        // B's record carries B.V across boundary 1 and nothing else.
        let b_sym = g.symbol_by_name("B").unwrap();
        assert_eq!(lt.layout(b_sym, 1), &[(bv.0, g.slot(bv))]);
        assert!(lt.layout(b_sym, 0).is_empty());
        assert!(lt.layout(b_sym, 2).is_empty());
    }

    #[test]
    fn same_pass_attribute_is_temporary() {
        let (g, pa) = two_pass_grammar();
        let lt = Lifetimes::compute(&g, &pa);
        let a_sym = g.symbol_by_name("A").unwrap();
        let av = g.attr_by_name(a_sym, "V").unwrap();
        let ai = g.attr_by_name(a_sym, "I").unwrap();
        // A.I and A.V are defined and consumed in pass 2.
        assert_eq!(pa.pass_of(av), 2);
        assert!(!lt.is_significant(av), "A.V defined and used in pass 2");
        assert!(!lt.is_significant(ai), "A.I defined and used in pass 2");
    }

    #[test]
    fn root_outputs_survive_to_the_end() {
        let (g, pa) = two_pass_grammar();
        let lt = Lifetimes::compute(&g, &pa);
        let sv = g.attr_by_name(g.symbol_by_name("S").unwrap(), "V").unwrap();
        assert!(lt.is_significant(sv));
        assert!(lt.alive_across(sv, pa.num_passes() as u16));
    }

    #[test]
    fn intrinsics_live_from_boundary_zero() {
        let (g, pa) = two_pass_grammar();
        let lt = Lifetimes::compute(&g, &pa);
        let obj = g
            .attr_by_name(g.symbol_by_name("x").unwrap(), "OBJ")
            .unwrap();
        assert_eq!(lt.earliest(obj), 0);
        assert!(lt.alive_across(obj, 0), "parser-written intrinsic");
        // OBJ is last used by B.V's rule in pass 1.
        assert!(!lt.alive_across(obj, 1));
    }

    #[test]
    fn majority_of_attributes_are_temporary_here() {
        // The paper: "the majority of attributes are referenced only
        // during the same pass in which they are defined".
        let (g, pa) = two_pass_grammar();
        let lt = Lifetimes::compute(&g, &pa);
        let temp = (0..g.attrs().len() as u32)
            .filter(|&i| !lt.is_significant(AttrId(i)))
            .count();
        assert!(temp >= 2);
    }
}
