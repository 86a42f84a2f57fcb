//! Evaluator source-code generation.
//!
//! "From an input attribute grammar [LINGUIST-86] generates a set of
//! high-level language source modules that form an alternating-pass
//! attribute evaluator." This crate is that generator: it renders, per
//! pass, the production-procedures (and per-symbol dispatchers) in a
//! Pascal-like surface matching the paper's p.165 figure, or a Rust-like
//! one, and accounts for every byte as *husk* (the traversal skeleton —
//! "the production-procedure declarations, calls to GetNode and PutNode,
//! and recursive calls to production-procedures") or *semantic-function
//! code*. Those two numbers regenerate the §V pass-size table (E9) and
//! the §III subsumption measurements (E8).
//!
//! # Example
//!
//! ```
//! use linguist_ag::analysis::{Analysis, Config};
//! use linguist_ag::grammar::AgBuilder;
//! use linguist_ag::expr::Expr;
//! use linguist_ag::ids::AttrOcc;
//! use linguist_codegen::{generate, Target};
//!
//! let mut b = AgBuilder::new();
//! let s = b.nonterminal("S");
//! let v = b.synthesized(s, "V", "int");
//! let x = b.terminal("x");
//! let obj = b.intrinsic(x, "OBJ", "int");
//! let p = b.production(s, vec![x], None);
//! b.rule(p, vec![AttrOcc::lhs(v)], Expr::Occ(AttrOcc::rhs(0, obj)));
//! b.start(s);
//! let analysis = Analysis::run(b.build()?, &Config::default())?;
//!
//! let evaluator = generate(&analysis, Target::Pascal);
//! assert_eq!(evaluator.passes.len(), 1);
//! assert!(evaluator.passes[0].source.contains("procedure"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod emit;
pub mod names;
pub mod rustgen;

pub use emit::{emit_dispatcher, emit_procedure, LineKind, ProcSource, Target};

use linguist_ag::analysis::Analysis;
use linguist_ag::grammar::SymbolKind;
use linguist_ag::ids::{ProdId, SymbolId};

/// One pass's generated module with its size accounting.
#[derive(Clone, Debug)]
pub struct GeneratedPass {
    /// The pass number (1-based).
    pub pass: u16,
    /// Concatenated source of dispatchers and production-procedures.
    pub source: String,
    /// Bytes of traversal skeleton ("overhead").
    pub husk_bytes: usize,
    /// Bytes of semantic-function code (including save/restore).
    pub semantic_bytes: usize,
    /// The save/set/restore share of `semantic_bytes`.
    pub save_restore_bytes: usize,
    /// Copy-rules emitted as comments (eliminated by subsumption).
    pub subsumed_rules: usize,
}

impl GeneratedPass {
    /// Total module size, the paper's per-pass byte count.
    pub fn total_bytes(&self) -> usize {
        self.husk_bytes + self.semantic_bytes
    }
}

/// The complete generated evaluator.
#[derive(Clone, Debug)]
pub struct GeneratedEvaluator {
    /// One module per pass.
    pub passes: Vec<GeneratedPass>,
    /// Global-variable declarations for statically allocated attributes.
    pub globals_decl: String,
    /// Output flavour.
    pub target: Target,
}

impl GeneratedEvaluator {
    /// The husk size (§V: "for a given grammar the size of the husk is the
    /// same for every pass").
    pub fn husk_bytes(&self) -> usize {
        self.passes.first().map(|p| p.husk_bytes).unwrap_or(0)
    }

    /// Total semantic-function bytes across all passes.
    pub fn semantic_bytes(&self) -> usize {
        self.passes.iter().map(|p| p.semantic_bytes).sum()
    }

    /// Total subsumed copy-rule sites across all passes.
    pub fn subsumed_rules(&self) -> usize {
        self.passes.iter().map(|p| p.subsumed_rules).sum()
    }

    /// Full source: globals then every pass module.
    pub fn full_source(&self) -> String {
        let mut out = self.globals_decl.clone();
        for p in &self.passes {
            out.push('\n');
            out.push_str(&p.source);
        }
        out
    }
}

/// Generate the module for a single pass — the unit the paper's seventh
/// overlay produces on each rerun.
pub fn generate_pass(analysis: &Analysis, k: u16, target: Target) -> GeneratedPass {
    let g = &analysis.grammar;
    let mut source = String::new();
    let mut husk = 0;
    let mut semantic = 0;
    let mut save_restore = 0;
    let mut subsumed = 0;
    // Dispatchers for every nonterminal.
    for (si, sym) in g.symbols().iter().enumerate() {
        if sym.kind != SymbolKind::Nonterminal {
            continue;
        }
        let d = emit_dispatcher(analysis, SymbolId(si as u32), k, target);
        source.push_str(&d.source);
        source.push('\n');
        husk += d.husk_bytes;
    }
    // Production-procedures.
    for (pi, _) in g.productions().iter().enumerate() {
        let p = emit_procedure(analysis, ProdId(pi as u32), k, target);
        source.push_str(&p.source);
        source.push('\n');
        husk += p.husk_bytes;
        semantic += p.semantic_bytes;
        save_restore += p.save_restore_bytes;
        subsumed += p.subsumed_rules;
    }
    GeneratedPass {
        pass: k,
        source,
        husk_bytes: husk,
        semantic_bytes: semantic,
        save_restore_bytes: save_restore,
        subsumed_rules: subsumed,
    }
}

/// Render the global-variable declarations for the statically allocated
/// attribute groups.
pub fn generate_globals(analysis: &Analysis, target: Target) -> String {
    globals_decl_for(analysis, target)
}

/// Generate the whole evaluator for an analyzed grammar.
pub fn generate(analysis: &Analysis, target: Target) -> GeneratedEvaluator {
    let mut passes = Vec::new();
    for k in 1..=analysis.passes.num_passes() as u16 {
        passes.push(generate_pass(analysis, k, target));
    }
    GeneratedEvaluator {
        passes,
        globals_decl: globals_decl_for(analysis, target),
        target,
    }
}

fn globals_decl_for(analysis: &Analysis, target: Target) -> String {
    let g = &analysis.grammar;
    // Global declarations: one variable (plus its save temp) per group
    // that holds at least one static attribute.
    let sub = &analysis.subsumption;
    let mut seen = std::collections::BTreeSet::new();
    let mut globals_decl = String::new();
    for (ai, _) in g.attrs().iter().enumerate() {
        let a = linguist_ag::ids::AttrId(ai as u32);
        if sub.is_static(a) {
            let gr = sub.group_of(a);
            if seen.insert(gr) {
                let name = names::global_var(sub.group_name(gr));
                match target {
                    Target::Pascal => {
                        globals_decl.push_str(&format!("VAR {} : attrib_type;\n", name))
                    }
                    Target::Rust => globals_decl
                        .push_str(&format!("static mut {}: Value = Value::UNSET;\n", name)),
                }
            }
        }
    }
    globals_decl
}

#[cfg(test)]
mod tests {
    use super::*;
    use linguist_ag::analysis::Config;
    use linguist_ag::expr::{BinOp, Expr};
    use linguist_ag::grammar::AgBuilder;
    use linguist_ag::ids::AttrOcc;
    use linguist_ag::passes::{Direction, PassConfig};
    use linguist_ag::subsumption::SubsumptionCosts;

    /// The paper-faithful configuration (optimizer off), first pass L→R.
    fn lr(costs: SubsumptionCosts) -> Config {
        Config {
            pass: PassConfig {
                first_direction: Direction::LeftToRight,
                max_passes: 8,
            },
            costs,
            optimize: false,
            ..Config::default()
        }
    }

    /// ENV copy-chain with limbs — exercises every emission path.
    fn analysis() -> Analysis {
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        let rv = b.synthesized(root, "OUT", "int");
        let s = b.nonterminal("S");
        let sv = b.synthesized(s, "OUT", "int");
        let se = b.inherited(s, "ENV", "int");
        let x = b.terminal("x");
        let obj = b.intrinsic(x, "OBJ", "int");
        let limb = b.limb("ListProd");
        let p0 = b.production(root, vec![s], None);
        b.rule(p0, vec![AttrOcc::rhs(0, se)], Expr::Int(1));
        b.rule(p0, vec![AttrOcc::lhs(rv)], Expr::Occ(AttrOcc::rhs(0, sv)));
        let _p1 = b.production(s, vec![s, x], Some(limb)); // implicit copies
        let p2 = b.production(s, vec![x], None);
        b.rule(
            p2,
            vec![AttrOcc::lhs(sv)],
            Expr::binop(
                BinOp::Add,
                Expr::Occ(AttrOcc::lhs(se)),
                Expr::Occ(AttrOcc::rhs(0, obj)),
            ),
        );
        b.start(root);
        let g = b.build().unwrap();
        Analysis::run(
            g,
            &lr(SubsumptionCosts {
                copy: 50,
                save_restore: 10,
            }),
        )
        .unwrap()
    }

    #[test]
    fn husk_is_identical_across_passes() {
        // Build a two-pass grammar to compare husk sizes.
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
        let analysis = Analysis::run(b.build().unwrap(), &lr(SubsumptionCosts::default())).unwrap();
        let gen = generate(&analysis, Target::Pascal);
        assert_eq!(gen.passes.len(), 2);
        assert_eq!(
            gen.passes[0].husk_bytes, gen.passes[1].husk_bytes,
            "the husk is the same for every pass (§V)"
        );
        // The two passes carry different semantic loads.
        assert_ne!(gen.passes[0].semantic_bytes, gen.passes[1].semantic_bytes);
    }

    #[test]
    fn procedure_shape_matches_paper_figure() {
        let a = analysis();
        let g = &a.grammar;
        let p1 = ProdId(1); // S -> S x with limb
        let src = emit_procedure(&a, p1, 1, Target::Pascal).source;
        let _ = g;
        // Limb read first, put last.
        let get_limb = src.find("GetNodeLISTPROD").expect("limb get");
        let put_limb = src.find("PutNodeLISTPROD").expect("limb put");
        assert!(get_limb < put_limb);
        // Children appear between.
        let get_child = src.find("GetNodeS1").expect("child get");
        assert!(get_limb < get_child && get_child < put_limb, "{}", src);
        // The dispatcher call for the nested S.
        assert!(src.contains("SPP1(S1);"), "{}", src);
    }

    #[test]
    fn subsumed_copies_are_commented_out() {
        let a = analysis();
        let gen = generate(&a, Target::Pascal);
        assert!(gen.subsumed_rules() > 0);
        let src = gen.full_source();
        // A commented copy of the ENV chain.
        assert!(
            src.contains("{ S1.ENV := S0.ENV }")
                || src.contains("{ S.ENV := S0.ENV }")
                || src.contains("ENV }"),
            "expected a commented-out ENV copy in:\n{}",
            src
        );
    }

    /// A copy-heavy grammar: many list-like productions, each propagating
    /// ENVIRONMENT down and RESULT up purely by (implicit) copy-rules —
    /// the shape where the paper's LINGUIST-86 grammar gets its ~20 %
    /// semantic-code elimination.
    fn copy_heavy_grammar() -> linguist_ag::grammar::Grammar {
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        let rv = b.synthesized(root, "RESULT", "int");
        let s = b.nonterminal("S");
        let sv = b.synthesized(s, "RESULT", "int");
        let se = b.inherited(s, "ENVIRONMENT", "int");
        let p0 = b.production(root, vec![s], None);
        b.rule(p0, vec![AttrOcc::rhs(0, se)], Expr::Int(1));
        b.rule(p0, vec![AttrOcc::lhs(rv)], Expr::Occ(AttrOcc::rhs(0, sv)));
        // Six recursive productions, all pure copy flow (implicit).
        for i in 0..6 {
            let t = b.terminal(&format!("t{}", i));
            b.production(s, vec![s, t], None);
        }
        // Leaf: a real computation.
        let x = b.terminal("x");
        let obj = b.intrinsic(x, "OBJ", "int");
        let p_leaf = b.production(s, vec![x], None);
        b.rule(
            p_leaf,
            vec![AttrOcc::lhs(sv)],
            Expr::binop(
                BinOp::Add,
                Expr::Occ(AttrOcc::lhs(se)),
                Expr::Occ(AttrOcc::rhs(0, obj)),
            ),
        );
        b.start(root);
        b.build().unwrap()
    }

    #[test]
    fn subsumption_shrinks_semantic_code() {
        let with = Analysis::run(
            copy_heavy_grammar(),
            &lr(SubsumptionCosts {
                copy: 30,
                save_restore: 30,
            }),
        )
        .unwrap();
        let gen_with = generate(&with, Target::Pascal);

        let without = Analysis::run(
            copy_heavy_grammar(),
            &Config {
                disable_subsumption: true,
                ..lr(SubsumptionCosts::default())
            },
        )
        .unwrap();
        let gen_without = generate(&without, Target::Pascal);

        assert!(
            gen_with.subsumed_rules() >= 12,
            "12 implicit copies subsume"
        );
        assert!(
            gen_with.semantic_bytes() < gen_without.semantic_bytes(),
            "with: {} without: {}",
            gen_with.semantic_bytes(),
            gen_without.semantic_bytes()
        );
        // Husk unaffected by the optimization.
        assert_eq!(gen_with.husk_bytes(), gen_without.husk_bytes());
        // The paper's observation: the eliminated fraction is meaningful
        // but bounded (each copy-rule generates very little code).
        let eliminated = gen_without.semantic_bytes() - gen_with.semantic_bytes();
        let frac = eliminated as f64 / gen_without.semantic_bytes() as f64;
        assert!(frac > 0.10 && frac < 0.95, "eliminated fraction {}", frac);
    }

    #[test]
    fn globals_declared_for_static_groups() {
        let a = analysis();
        let gen = generate(&a, Target::Pascal);
        assert!(gen.globals_decl.contains("G_ENV"), "{}", gen.globals_decl);
    }

    #[test]
    fn rust_target_renders() {
        let a = analysis();
        let gen = generate(&a, Target::Rust);
        let src = gen.full_source();
        assert!(src.contains("fn "), "{}", src);
        assert!(src.contains("ctx.get_node()"), "{}", src);
        assert!(gen.passes[0].husk_bytes > 0);
    }

    #[test]
    fn dispatchers_cover_all_productions_of_symbol() {
        let a = analysis();
        let g = &a.grammar;
        let s = g.symbol_by_name("S").unwrap();
        let d = emit_dispatcher(&a, s, 1, Target::Pascal);
        // S has two productions (indexes 1 and 2).
        assert!(d.source.contains("1: "), "{}", d.source);
        assert!(d.source.contains("2: "), "{}", d.source);
    }
}
