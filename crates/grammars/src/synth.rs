//! Synthetic attribute-grammar families with controlled copy density.
//!
//! The paper observes that "between 40 and 60 percent of the semantic
//! functions are copy-rules" in typical attribute grammars and that
//! static subsumption's payoff depends on that fraction. This module
//! generates list-shaped grammars where the fraction is a dial, driving
//! the E13 ablation (cost-model sweep, same-name vs coalescing grouping).

use linguist_ag::expr::{BinOp, Expr};
use linguist_ag::grammar::{AgBuilder, Grammar};
use linguist_ag::ids::{AttrOcc, ProdId, SymbolId};
use linguist_eval::tree::PTree;
use linguist_eval::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic grammar.
#[derive(Clone, Copy, Debug)]
pub struct SynthParams {
    /// Number of inherited "context" attributes on the list symbol.
    pub inherited_attrs: usize,
    /// Number of recursive list productions.
    pub list_productions: usize,
    /// Probability that a context attribute flows through a production by
    /// a pure copy (left implicit) rather than being recomputed.
    pub copy_density: f64,
    /// RNG seed (the same seed yields the same grammar).
    pub seed: u64,
}

impl Default for SynthParams {
    fn default() -> SynthParams {
        SynthParams {
            inherited_attrs: 6,
            list_productions: 8,
            copy_density: 0.5,
            seed: 42,
        }
    }
}

/// A generated grammar plus the handles needed to build input trees.
#[derive(Debug)]
pub struct SynthGrammar {
    /// The grammar (not yet analyzed).
    pub grammar: Grammar,
    /// The list nonterminal's leaf production.
    pub leaf_prod: ProdId,
    /// The recursive productions.
    pub list_prods: Vec<ProdId>,
    /// The leaf terminal.
    pub leaf_term: SymbolId,
    /// The leaf terminal's intrinsic attribute.
    pub leaf_attr: linguist_ag::ids::AttrId,
}

/// Generate a grammar from `params`.
pub fn generate(params: &SynthParams) -> SynthGrammar {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut b = AgBuilder::new();

    let root = b.nonterminal("root");
    let out_root = b.synthesized(root, "OUT", "int");
    let s = b.nonterminal("S");
    let out_s = b.synthesized(s, "OUT", "int");
    let mut ctx_attrs = Vec::new();
    for i in 0..params.inherited_attrs {
        ctx_attrs.push(b.inherited(s, &format!("CTX{}", i), "int"));
    }
    let x = b.terminal("x");
    let leaf_attr = b.intrinsic(x, "OBJ", "int");

    // root -> S : seed every context attribute; OUT copied up implicitly.
    let p_root = b.production(root, vec![s], None);
    for (i, &a) in ctx_attrs.iter().enumerate() {
        b.rule(p_root, vec![AttrOcc::rhs(0, a)], Expr::Int(i as i64));
    }
    let _ = out_root;

    // Recursive list productions: S -> S t_k. Context attributes either
    // copy through (implicitly) or get recomputed.
    let mut list_prods = Vec::new();
    for k in 0..params.list_productions {
        let t = b.terminal(&format!("t{}", k));
        let p = b.production(s, vec![s, t], None);
        for &a in &ctx_attrs {
            if rng.gen::<f64>() >= params.copy_density {
                // Recompute: CTX_i of the child = CTX_i of this node + 1.
                b.rule(
                    p,
                    vec![AttrOcc::rhs(0, a)],
                    Expr::binop(BinOp::Add, Expr::Occ(AttrOcc::lhs(a)), Expr::Int(1)),
                );
            }
            // else: left to the implicit copy-rule mechanism.
        }
        // OUT copied up implicitly.
        list_prods.push(p);
    }

    // Leaf: S -> x, OUT sums every context attribute with the intrinsic.
    let leaf_prod = b.production(s, vec![x], None);
    let mut sum = Expr::Occ(AttrOcc::rhs(0, leaf_attr));
    for &a in &ctx_attrs {
        sum = Expr::binop(BinOp::Add, sum, Expr::Occ(AttrOcc::lhs(a)));
    }
    b.rule(leaf_prod, vec![AttrOcc::lhs(out_s)], sum);

    b.start(root);
    SynthGrammar {
        grammar: b.build().expect("synthetic grammar is structurally valid"),
        leaf_prod,
        list_prods,
        leaf_term: x,
        leaf_attr,
    }
}

impl SynthGrammar {
    /// Build an input chain of `len` list nodes (deterministic from
    /// `seed`), cycling through the list productions.
    pub fn chain(&self, len: usize, seed: u64) -> PTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let leaf = |rng: &mut StdRng, this: &SynthGrammar| {
            PTree::leaf(
                this.leaf_term,
                vec![(this.leaf_attr, Value::Int(rng.gen_range(0..100)))],
            )
        };
        let mut t = PTree::node(self.leaf_prod, vec![leaf(&mut rng, self)]);
        for i in 0..len {
            let p = self.list_prods[i % self.list_prods.len()];
            // The terminal of production p is its second RHS symbol.
            let term = self.grammar.production(p).rhs[1];
            t = PTree::node(p, vec![t, PTree::leaf(term, vec![])]);
        }
        // Wrap in root -> S (production 0).
        PTree::node(ProdId(0), vec![t])
    }
}

// ---------------------------------------------------------------------------
// Randomized grammar *shapes* for differential fuzzing.
// ---------------------------------------------------------------------------
//
// Where [`generate`] produces one list-shaped family with a copy-density
// dial (the E13 ablation), [`shape_strategy`] + [`realize`] span a space
// of grammar *shapes*: random nonterminal/production topologies, mixes of
// inherited and synthesized attributes, implicit-copy chains, limb
// attributes, multi-target (Figure 5) semantic functions, and rank
// ladders whose cross-rank dependencies force 1..N alternating passes.
//
// Correctness by construction — the rank model. Every attribute name has
// a rank; semantic functions only consume arguments whose (rank, flow)
// is already available when their target is computed:
//
// * `RHS.I{r}` (inherited, flows down) may read `LHS.I{q<=r}` and
//   `LHS.S{q<r}` — the parent's context, or its lower-rank results.
// * `LHS.S{r}` (synthesized, flows up) may read `RHS.S{q<=r}`, terminal
//   intrinsics, `LHS.I{q<=r}`, and the production's limb attribute.
// * the limb attribute reads only rank-1-available arguments.
//
// Down-flow within a rank and up-flow within a rank both fit a single
// depth-first pass, and every cross-rank edge points from lower to
// higher rank, so the grammar is non-circular and alternating-pass
// evaluable in at most `ranks + 1` passes — comfortably inside the
// default `max_passes = 8`. An `I{r} <- S{r-1}` edge at the root makes
// the ladder *tight*: rank r genuinely cannot evaluate before pass r.
//
// Attribute names are shared across all nonterminals so omitted rules
// fall to the implicit-copy mechanism of §IV exactly when its conditions
// hold (checked structurally below, mirroring `linguist_ag::implicit`).
// Symbol names are digit-free because the frontend's occurrence-suffix
// resolution strips trailing digits (`expr1` names the second `expr`).
//
// [`realize`] round-trips the built grammar through the *text* frontend
// (print → parse → lower → analyze) and, should the analysis ever reject
// a shape, deterministically degrades it feature by feature down to a
// flat synthesized-only grammar, so it always returns an analyzable
// grammar and the differential harness's case count stays exact.

use linguist_ag::ids::AttrId;
use linguist_frontend::differential::faithful;
use linguist_frontend::driver::analyze;
use linguist_frontend::printer::print_grammar;
use proptest::prelude::*;

/// The families the shape strategy draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Synthesized-only, one pass.
    Flat,
    /// One rank with inherited context and a high implicit-copy density.
    CopyChain,
    /// 2–3 ranks with tight cross-rank edges: multi-pass schedules.
    Ladder,
    /// Two ranks plus limbs and multi-target functions.
    Mixed,
}

impl Family {
    /// Short tag used in generated grammar names.
    pub fn tag(self) -> &'static str {
        match self {
            Family::Flat => "flat",
            Family::CopyChain => "copy",
            Family::Ladder => "ladder",
            Family::Mixed => "mixed",
        }
    }
}

/// One point in the shape space. `Strategy`-generated; `realize` turns it
/// into an actual grammar deterministically.
#[derive(Clone, Copy, Debug)]
pub struct ShapeParams {
    /// Which feature mix to build.
    pub family: Family,
    /// Nonterminals besides the root (1..=3).
    pub nonterminals: usize,
    /// Attribute ranks (1..=3): the depth of the pass ladder.
    pub ranks: usize,
    /// Whether nonterminals carry inherited context at all.
    pub inherited: bool,
    /// Structural productions per nonterminal beyond its leaf (1..=2).
    pub extra_prods: usize,
    /// Probability that an eligible copy is left to the implicit
    /// mechanism rather than written explicitly.
    pub copy_density: f64,
    /// Generate Figure-5 multi-target semantic functions.
    pub multi_target: bool,
    /// Attach limb symbols/attributes to some productions.
    pub use_limb: bool,
    /// Node budget for `synthesize_tree` when evaluating this shape.
    pub budget: usize,
    /// Sub-seed consumed by the deterministic realization.
    pub seed: u64,
}

/// A realized shape: the structural grammar plus its canonical `.lg`
/// spelling (the artifact every execution mode starts from).
#[derive(Debug)]
pub struct ShapedGrammar {
    /// The parameters that produced this grammar.
    pub params: ShapeParams,
    /// Grammar name (also used for corpus fixture file names).
    pub name: String,
    /// Pretty-printed LINGUIST source; parsing + lowering this is the
    /// canonical way to reconstruct the grammar in every mode.
    pub source: String,
    /// The structural grammar as built (pre-analysis, explicit rules only).
    pub grammar: Grammar,
    /// How many degradation steps `realize` had to take (0 = the shape
    /// analyzed as drawn).
    pub degraded: u32,
}

/// Strategy over the whole shape space: a union of the four families,
/// each with its own dials, all carrying an independent sub-seed.
pub fn shape_strategy() -> BoxedStrategy<ShapeParams> {
    let seed = || 0u64..u64::MAX;
    let budget = || 8usize..=48;
    prop_oneof![
        (1usize..=3, 1usize..=2, budget(), seed(), 0u64..4).prop_map(
            |(nonterminals, extra_prods, budget, seed, coin)| ShapeParams {
                family: Family::Flat,
                nonterminals,
                ranks: 1,
                inherited: false,
                extra_prods,
                copy_density: 0.4,
                multi_target: coin == 0,
                use_limb: coin == 1,
                budget,
                seed,
            }
        ),
        (1usize..=3, 1usize..=2, 0.70f64..0.95, budget(), seed()).prop_map(
            |(nonterminals, extra_prods, copy_density, budget, seed)| ShapeParams {
                family: Family::CopyChain,
                nonterminals,
                ranks: 1,
                inherited: true,
                extra_prods,
                copy_density,
                multi_target: false,
                use_limb: false,
                budget,
                seed,
            }
        ),
        (
            1usize..=3,
            2usize..=3,
            1usize..=2,
            0.20f64..0.60,
            budget(),
            seed()
        )
            .prop_map(
                |(nonterminals, ranks, extra_prods, copy_density, budget, seed)| ShapeParams {
                    family: Family::Ladder,
                    nonterminals,
                    ranks,
                    inherited: true,
                    extra_prods,
                    copy_density,
                    multi_target: false,
                    use_limb: seed % 2 == 0,
                    budget,
                    seed,
                }
            ),
        (1usize..=3, 1usize..=2, 0.30f64..0.70, budget(), seed()).prop_map(
            |(nonterminals, extra_prods, copy_density, budget, seed)| ShapeParams {
                family: Family::Mixed,
                nonterminals,
                ranks: 2,
                inherited: true,
                extra_prods,
                copy_density,
                multi_target: true,
                use_limb: true,
                budget,
                seed,
            }
        ),
    ]
    .boxed()
}

/// Deterministically realize `params` into an analyzable grammar.
///
/// The shape is built rank-correct by construction, then validated by
/// round-tripping its printed source through the full frontend pipeline
/// (`analyze` under the differential oracle's paper-faithful baseline
/// configuration, i.e. parse → lower → implicit copies → pass analysis),
/// so the shape space does not move when the optimizer changes. If
/// validation fails, features are peeled off one at a time — multi-target,
/// limbs, implicit copies, finally the whole ladder — and the attempt
/// count is reported in [`ShapedGrammar::degraded`], so the differential
/// harness always gets a runnable grammar per drawn case.
pub fn realize(params: &ShapeParams) -> ShapedGrammar {
    let mut p = *params;
    for attempt in 0u32.. {
        let grammar = construct(&p);
        let name = format!("fz_{}_{:016x}", p.family.tag(), p.seed);
        let source = print_grammar(&grammar, &name);
        if analyze(&source, &faithful()).is_ok() {
            return ShapedGrammar {
                params: p,
                name,
                source,
                grammar,
                degraded: attempt,
            };
        }
        match attempt {
            0 => p.multi_target = false,
            1 => p.use_limb = false,
            2 => p.copy_density = 0.0,
            3 => {
                p.ranks = 1;
                p.inherited = false;
            }
            _ => panic!(
                "flat fallback failed to analyze (seed {:#x}):\n{}",
                p.seed, source
            ),
        }
    }
    unreachable!()
}

/// Attribute handles of one nonterminal under the shared naming scheme.
struct NtAttrs {
    sym: SymbolId,
    /// `inh[r]` = the rank-`r+1` inherited context attribute (empty when
    /// the shape has no inherited attributes).
    inh: Vec<AttrId>,
    /// `syn[r]` = the rank-`r+1` synthesized value attribute.
    syn: Vec<AttrId>,
    /// The extra rank-R synthesized attribute paired into multi-target
    /// rules (None unless `multi_target`).
    wz: Option<AttrId>,
}

const NT_NAMES: [&str; 3] = ["na", "nb", "nc"];
const TERM_NAMES: [&str; 3] = ["ta", "tb", "tc"];
const INH_NAMES: [&str; 3] = ["CA", "CB", "CC"];
const SYN_NAMES: [&str; 3] = ["VA", "VB", "VC"];

fn construct(p: &ShapeParams) -> Grammar {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut b = AgBuilder::new();
    let ranks = p.ranks.clamp(1, 3);
    let num_nts = p.nonterminals.clamp(1, 3);

    // Root: synthesized results only (nothing above it to seed context).
    let root = b.nonterminal("rt");
    let root_syn: Vec<AttrId> = (0..ranks)
        .map(|r| b.synthesized(root, SYN_NAMES[r], "int"))
        .collect();
    let root_wz = p.multi_target.then(|| b.synthesized(root, "WZ", "int"));

    // Nonterminals share one attribute vocabulary so omitted rules are
    // exactly the cases §IV's implicit copies cover.
    let nts: Vec<NtAttrs> = (0..num_nts)
        .map(|i| {
            let sym = b.nonterminal(NT_NAMES[i]);
            NtAttrs {
                sym,
                inh: if p.inherited {
                    (0..ranks)
                        .map(|r| b.inherited(sym, INH_NAMES[r], "int"))
                        .collect()
                } else {
                    Vec::new()
                },
                syn: (0..ranks)
                    .map(|r| b.synthesized(sym, SYN_NAMES[r], "int"))
                    .collect(),
                wz: p.multi_target.then(|| b.synthesized(sym, "WZ", "int")),
            }
        })
        .collect();

    let terms: Vec<(SymbolId, AttrId)> = TERM_NAMES
        .iter()
        .map(|n| {
            let t = b.terminal(n);
            (t, b.intrinsic(t, "OBJ", "int"))
        })
        .collect();

    let limb = p.use_limb.then(|| {
        let l = b.limb("lb");
        (l, b.limb_attr(l, "TMP", "int"))
    });

    // Root production rt -> na. Inherited context is seeded explicitly
    // (the root has no same-named attributes, so no implicit copy can
    // apply); `I{r} <- S{r-1}` edges make the pass ladder tight.
    let p_root = b.production(root, vec![nts[0].sym], None);
    for (r, rs) in root_syn.iter().enumerate() {
        if p.inherited {
            let seed_expr = if r > 0 && rng.gen_bool(0.8) {
                Expr::binop(
                    BinOp::Add,
                    Expr::Occ(AttrOcc::rhs(0, nts[0].syn[r - 1])),
                    Expr::Int(rng.gen_range(0..5)),
                )
            } else {
                Expr::Int(rng.gen_range(0..7))
            };
            b.rule(p_root, vec![AttrOcc::rhs(0, nts[0].inh[r])], seed_expr);
        }
        if !rng.gen_bool(p.copy_density) {
            b.rule(
                p_root,
                vec![AttrOcc::lhs(*rs)],
                Expr::Occ(AttrOcc::rhs(0, nts[0].syn[r])),
            );
        } // else: implicit synthesized copy (single rhs occurrence).
    }
    if let (Some(rwz), Some(nwz)) = (root_wz, nts[0].wz) {
        if !rng.gen_bool(p.copy_density) {
            b.rule(
                p_root,
                vec![AttrOcc::lhs(rwz)],
                Expr::Occ(AttrOcc::rhs(0, nwz)),
            );
        }
    }

    // Structural productions. nts[i]'s first structural production is
    // forced to mention nts[i+1] so the whole chain stays reachable.
    for i in 0..num_nts {
        for k in 0..p.extra_prods.max(1) {
            let mut rhs_syms: Vec<SymbolId> = Vec::new();
            if k == 0 && i + 1 < num_nts {
                rhs_syms.push(nts[i + 1].sym);
            }
            let extra = rng.gen_range(1..3usize);
            for _ in 0..extra {
                if rng.gen_bool(0.55) {
                    // Self or any deeper nonterminal keeps derivations
                    // well-founded (every nonterminal has a leaf).
                    let j = rng.gen_range(i..num_nts);
                    rhs_syms.push(nts[j].sym);
                } else {
                    rhs_syms.push(terms[rng.gen_range(0..terms.len())].0);
                }
            }
            let prod_limb = limb.filter(|_| rng.gen_bool(0.5));
            let prod = b.production(nts[i].sym, rhs_syms.clone(), prod_limb.map(|(l, _)| l));
            build_rules(
                &mut b,
                &mut rng,
                p,
                prod,
                i,
                &rhs_syms,
                &nts,
                &terms,
                prod_limb.map(|(_, a)| a),
                ranks,
            );
        }
        // Leaf production: every nonterminal bottoms out at a terminal.
        let (t, _) = terms[rng.gen_range(0..terms.len())];
        let leaf = b.production(nts[i].sym, vec![t], None);
        build_rules(
            &mut b,
            &mut rng,
            p,
            leaf,
            i,
            &[t],
            &nts,
            &terms,
            None,
            ranks,
        );
    }

    b.start(root);
    b.build().expect("shaped grammar is structurally valid")
}

/// Emit the semantic functions of one production under the rank model.
#[allow(clippy::too_many_arguments)]
fn build_rules(
    b: &mut AgBuilder,
    rng: &mut StdRng,
    p: &ShapeParams,
    prod: ProdId,
    lhs_nt: usize,
    rhs: &[SymbolId],
    nts: &[NtAttrs],
    terms: &[(SymbolId, AttrId)],
    limb_attr: Option<AttrId>,
    ranks: usize,
) {
    let nt_index = |s: SymbolId| nts.iter().position(|n| n.sym == s);
    let nt_occs: Vec<(u16, usize)> = rhs
        .iter()
        .enumerate()
        .filter_map(|(j, &s)| nt_index(s).map(|i| (j as u16, i)))
        .collect();
    let term_occs: Vec<(u16, AttrId)> = rhs
        .iter()
        .enumerate()
        .filter_map(|(j, &s)| {
            terms
                .iter()
                .find(|(t, _)| *t == s)
                .map(|(_, a)| (j as u16, *a))
        })
        .collect();
    // §IV synthesized-copy precondition: exactly one rhs symbol carrying
    // the attribute, occurring exactly once.
    let syn_copy_ok = nt_occs.len() == 1;
    let me = &nts[lhs_nt];

    // Limb attribute first: rank-1 arguments only, always explicit.
    if let Some(la) = limb_attr {
        let mut pool: Vec<Expr> = Vec::new();
        for &(j, i) in &nt_occs {
            pool.push(Expr::Occ(AttrOcc::rhs(j, nts[i].syn[0])));
        }
        for &(j, a) in &term_occs {
            pool.push(Expr::Occ(AttrOcc::rhs(j, a)));
        }
        if p.inherited {
            pool.push(Expr::Occ(AttrOcc::lhs(me.inh[0])));
        }
        let e = gen_expr(b, rng, &pool, 2);
        b.rule(prod, vec![AttrOcc::limb(la)], e);
    }

    // Inherited context of each nonterminal occurrence, rank by rank.
    if p.inherited {
        for r in 0..ranks {
            for &(j, i) in &nt_occs {
                if rng.gen_bool(p.copy_density) {
                    continue; // implicit copy: RHS.I{r} = LHS.I{r}
                }
                let mut pool: Vec<Expr> = (0..=r)
                    .map(|q| Expr::Occ(AttrOcc::lhs(me.inh[q])))
                    .collect();
                for q in 0..r {
                    pool.push(Expr::Occ(AttrOcc::lhs(me.syn[q])));
                }
                let e = gen_expr(b, rng, &pool, 2);
                b.rule(prod, vec![AttrOcc::rhs(j, nts[i].inh[r])], e);
            }
        }
    }

    // Synthesized results, rank by rank; WZ rides at the top rank and may
    // be fused with it into one Figure-5 multi-target function.
    let syn_pool = |r: usize| -> Vec<Expr> {
        let mut pool: Vec<Expr> = Vec::new();
        for &(j, i) in &nt_occs {
            for q in 0..=r {
                pool.push(Expr::Occ(AttrOcc::rhs(j, nts[i].syn[q])));
            }
        }
        for &(j, a) in &term_occs {
            pool.push(Expr::Occ(AttrOcc::rhs(j, a)));
        }
        if p.inherited {
            for q in 0..=r {
                pool.push(Expr::Occ(AttrOcc::lhs(me.inh[q])));
            }
        }
        if let Some(la) = limb_attr {
            pool.push(Expr::Occ(AttrOcc::limb(la)));
        }
        pool
    };

    let top = ranks - 1;
    let mut wz_fused = false;
    for r in 0..ranks {
        let fuse_wz = r == top && me.wz.is_some() && rng.gen_bool(0.6);
        let explicit = !(syn_copy_ok && rng.gen_bool(p.copy_density)) || fuse_wz;
        if !explicit {
            continue; // implicit copy: LHS.S{r} = <the one rhs child>.S{r}
        }
        let pool = syn_pool(r);
        if fuse_wz {
            // `S & WZ = if c then e, e' else f, f' endif` — one function,
            // two targets, arm width 2 (Figure 5).
            let cond = gen_cond(rng, &pool);
            let arms = |rng: &mut StdRng, b: &mut AgBuilder| {
                vec![gen_expr(b, rng, &pool, 1), gen_expr(b, rng, &pool, 1)]
            };
            let then_arm = arms(rng, b);
            let else_arm = arms(rng, b);
            b.rule(
                prod,
                vec![AttrOcc::lhs(me.syn[r]), AttrOcc::lhs(me.wz.unwrap())],
                Expr::If {
                    branches: vec![(cond, then_arm)],
                    otherwise: else_arm,
                },
            );
            wz_fused = true;
        } else {
            let e = gen_expr(b, rng, &pool, 2);
            b.rule(prod, vec![AttrOcc::lhs(me.syn[r])], e);
        }
    }
    // WZ not fused above: give it its own rule (or implicit copy).
    if let Some(wz) = me.wz {
        if !(wz_fused || syn_copy_ok && rng.gen_bool(p.copy_density)) {
            let pool = syn_pool(top);
            let e = gen_expr(b, rng, &pool, 2);
            b.rule(prod, vec![AttrOcc::lhs(wz)], e);
        }
    }
}

/// A small random int-typed expression over `pool`. Depth-bounded; every
/// function call is int × int → int from the standard registry.
fn gen_expr(b: &mut AgBuilder, rng: &mut StdRng, pool: &[Expr], depth: usize) -> Expr {
    let leaf = |rng: &mut StdRng| -> Expr {
        if !pool.is_empty() && rng.gen_bool(0.7) {
            pool[rng.gen_range(0..pool.len())].clone()
        } else {
            Expr::Int(rng.gen_range(0..10))
        }
    };
    if depth == 0 || rng.gen_bool(0.35) {
        return leaf(rng);
    }
    match rng.gen_range(0..4u32) {
        0 => Expr::binop(
            BinOp::Add,
            gen_expr(b, rng, pool, depth - 1),
            gen_expr(b, rng, pool, depth - 1),
        ),
        1 => Expr::binop(
            BinOp::Sub,
            gen_expr(b, rng, pool, depth - 1),
            gen_expr(b, rng, pool, depth - 1),
        ),
        2 => {
            let f = ["Max", "Min", "Mul"][rng.gen_range(0..3usize)];
            let func = b.name(f);
            Expr::Call {
                func,
                args: vec![
                    gen_expr(b, rng, pool, depth - 1),
                    gen_expr(b, rng, pool, depth - 1),
                ],
            }
        }
        _ => {
            let cond = gen_cond(rng, pool);
            Expr::If {
                branches: vec![(cond, vec![gen_expr(b, rng, pool, depth - 1)])],
                otherwise: vec![gen_expr(b, rng, pool, depth - 1)],
            }
        }
    }
}

/// A boolean condition: a comparison of two pool/int leaves, occasionally
/// conjoined. Comparisons only ever see int operands.
fn gen_cond(rng: &mut StdRng, pool: &[Expr]) -> Expr {
    let leaf = |rng: &mut StdRng| -> Expr {
        if !pool.is_empty() && rng.gen_bool(0.7) {
            pool[rng.gen_range(0..pool.len())].clone()
        } else {
            Expr::Int(rng.gen_range(0..10))
        }
    };
    let cmp = |rng: &mut StdRng| -> Expr {
        let op = [BinOp::Lt, BinOp::Gt, BinOp::Eq, BinOp::Ne][rng.gen_range(0..4usize)];
        Expr::binop(op, leaf(rng), leaf(rng))
    };
    if rng.gen_bool(0.2) {
        Expr::binop(BinOp::And, cmp(rng), cmp(rng))
    } else {
        cmp(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linguist_ag::analysis::{Analysis, Config};
    use linguist_ag::stats::GrammarStats;
    use linguist_eval::funcs::Funcs;
    use linguist_eval::machine::{evaluate, EvalOptions};

    #[test]
    fn copy_density_controls_copy_fraction() {
        let low = generate(&SynthParams {
            copy_density: 0.1,
            ..SynthParams::default()
        });
        let high = generate(&SynthParams {
            copy_density: 0.9,
            ..SynthParams::default()
        });
        let mut gl = low.grammar.clone();
        let mut gh = high.grammar.clone();
        linguist_ag::implicit::insert_implicit_copies(&mut gl);
        linguist_ag::implicit::insert_implicit_copies(&mut gh);
        let sl = GrammarStats::compute(&gl, None);
        let sh = GrammarStats::compute(&gh, None);
        assert!(
            sh.copy_fraction() > sl.copy_fraction(),
            "high {:.2} vs low {:.2}",
            sh.copy_fraction(),
            sl.copy_fraction()
        );
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = generate(&SynthParams::default());
        let b = generate(&SynthParams::default());
        assert_eq!(a.grammar.rules().len(), b.grammar.rules().len());
    }

    #[test]
    fn synthetic_grammars_analyze_and_evaluate() {
        let sg = generate(&SynthParams::default());
        let analysis = Analysis::run(sg.grammar.clone(), &Config::default()).unwrap();
        assert_eq!(analysis.passes.num_passes(), 1);
        let tree = sg.chain(30, 7);
        let r = evaluate(
            &analysis,
            &Funcs::standard(),
            &tree,
            &EvalOptions::default(),
        )
        .unwrap();
        assert!(matches!(r.output(&analysis, "OUT"), Some(Value::Int(_))));
    }

    #[test]
    fn realize_is_deterministic() {
        let p = ShapeParams {
            family: Family::Mixed,
            nonterminals: 2,
            ranks: 2,
            inherited: true,
            extra_prods: 2,
            copy_density: 0.5,
            multi_target: true,
            use_limb: true,
            budget: 24,
            seed: 0xfeed_beef,
        };
        let a = realize(&p);
        let b = realize(&p);
        assert_eq!(a.source, b.source);
        assert_eq!(a.degraded, b.degraded);
    }

    #[test]
    fn shape_space_stays_analyzable_without_degradation() {
        use proptest::test_runner::TestRng;
        // Sweep a fixed slice of the shape space: every realized grammar
        // must analyze, and degradation (the safety net) should be the
        // rare exception, not the norm.
        let strat = shape_strategy();
        let mut rng = TestRng::new(0x5eed);
        let mut degraded = 0u32;
        let mut multipass = 0u32;
        for _ in 0..24 {
            let params = strat.generate(&mut rng);
            let sg = realize(&params);
            degraded += u32::from(sg.degraded > 0);
            let analysis = analyze(&sg.source, &faithful())
                .unwrap_or_else(|e| panic!("realized grammar must analyze: {}\n{}", e, sg.source));
            if analysis.passes.num_passes() > 1 {
                multipass += 1;
            }
        }
        assert!(degraded <= 4, "too many degraded shapes: {}/24", degraded);
        assert!(
            multipass >= 4,
            "shape space too flat: {}/24 multipass",
            multipass
        );
    }

    #[test]
    fn ladder_shapes_force_multiple_passes() {
        let p = ShapeParams {
            family: Family::Ladder,
            nonterminals: 2,
            ranks: 3,
            inherited: true,
            extra_prods: 2,
            copy_density: 0.3,
            multi_target: false,
            use_limb: false,
            budget: 24,
            seed: 11,
        };
        let sg = realize(&p);
        let analysis = analyze(&sg.source, &faithful()).unwrap();
        assert!(
            analysis.passes.num_passes() >= 2,
            "rank-3 ladder should need >= 2 passes, got {}\n{}",
            analysis.passes.num_passes(),
            sg.source
        );
    }
}
