//! `check_noncircular` against a reference implementation of the same
//! uniform test.
//!
//! The reference is the straightforward form: every fixpoint sweep
//! rebuilds every production graph with a `HashMap` index and takes a
//! depth-first closure from every occurrence, until a whole sweep adds
//! no IO pair; the cycle check rebuilds every graph once more. Its child
//! IO edges are taken in (inherited slot, synthesized slot) order, so
//! the cycle it reports is the one the production code must report.
//!
//! The property: an identical `Result` (the same `IoRelations`, or a
//! `Circularity` with the same production and cycle) on the bundled
//! grammars before and after the optimizer, on 64 `synth::generate`
//! grammars, on 32 randomized grammar shapes, and on circular variants
//! made by adding one back-edge rule to a generated grammar.

use linguist86::ag::circularity::{check_noncircular, Circularity, IoRelations};
use linguist86::ag::dataflow::optimize;
use linguist86::ag::expr::{BinOp, Expr};
use linguist86::ag::grammar::{AgBuilder, AttrClass, Grammar, SymbolKind};
use linguist86::ag::ids::{AttrOcc, OccPos, ProdId};
use linguist86::ag::implicit::insert_implicit_copies;
use linguist86::frontend::{lower_with_spans, parse};
use linguist86::grammars::synth::{generate, realize, shape_strategy, SynthParams};
use linguist86::grammars::{block_source, calc_source, knuth_source, meta_source, pascal_source};
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference test: same contract as `check_noncircular`.
fn reference(g: &Grammar) -> Result<IoRelations, Circularity> {
    let mut io: IoRelations = HashMap::new();
    loop {
        let mut changed = false;
        for (pi, prod) in g.productions().iter().enumerate() {
            let (nodes, edges) = production_graph(g, ProdId(pi as u32), &io);
            let reach = transitive_closure(&nodes, &edges);
            for (from, tos) in reach.iter().enumerate() {
                let focc = nodes[from];
                if focc.pos != OccPos::Lhs || g.attr(focc.attr).class != AttrClass::Inherited {
                    continue;
                }
                for &to in tos {
                    let tocc = nodes[to];
                    if tocc.pos == OccPos::Lhs && g.attr(tocc.attr).class == AttrClass::Synthesized
                    {
                        changed |= io
                            .entry(prod.lhs.0)
                            .or_default()
                            .insert((focc.attr, tocc.attr));
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    for pi in 0..g.productions().len() {
        let prod = ProdId(pi as u32);
        let (nodes, edges) = production_graph(g, prod, &io);
        if let Some(cycle) = find_cycle(nodes.len(), &edges) {
            return Err(Circularity {
                prod,
                cycle: cycle.into_iter().map(|ix| nodes[ix]).collect(),
            });
        }
    }
    Ok(io)
}

/// All occurrences of a production, and its rule edges (in rule order)
/// followed by its children's IO edges (in slot order).
fn production_graph(
    g: &Grammar,
    prod_id: ProdId,
    io: &IoRelations,
) -> (Vec<AttrOcc>, Vec<(usize, usize)>) {
    let prod = g.production(prod_id);
    let mut nodes = Vec::new();
    let mut index = HashMap::new();
    let mut push = |occ: AttrOcc| {
        index.insert(occ, nodes.len());
        nodes.push(occ);
    };
    for &a in &g.symbol(prod.lhs).attrs {
        push(AttrOcc::lhs(a));
    }
    for (i, &s) in prod.rhs.iter().enumerate() {
        for &a in &g.symbol(s).attrs {
            push(AttrOcc::rhs(i as u16, a));
        }
    }
    if let Some(l) = prod.limb {
        for &a in &g.symbol(l).attrs {
            push(AttrOcc::limb(a));
        }
    }
    let mut edges = Vec::new();
    for &r in &prod.rules {
        let rule = g.rule(r);
        for arg in rule.arguments() {
            for &t in &rule.targets {
                edges.push((index[&arg], index[&t]));
            }
        }
    }
    for (i, &s) in prod.rhs.iter().enumerate() {
        if g.symbol(s).kind != SymbolKind::Nonterminal {
            continue;
        }
        let Some(pairs) = io.get(&s.0) else { continue };
        let mut pairs: Vec<_> = pairs.iter().copied().collect();
        pairs.sort_by_key(|&(inh, syn)| (g.slot(inh), g.slot(syn)));
        for (inh, syn) in pairs {
            edges.push((
                index[&AttrOcc::rhs(i as u16, inh)],
                index[&AttrOcc::rhs(i as u16, syn)],
            ));
        }
    }
    (nodes, edges)
}

fn transitive_closure(nodes: &[AttrOcc], edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); nodes.len()];
    for &(a, b) in edges {
        adj[a].push(b);
    }
    (0..nodes.len())
        .map(|start| {
            let mut seen = vec![false; nodes.len()];
            let mut out = Vec::new();
            let mut stack = vec![start];
            while let Some(n) = stack.pop() {
                for &m in &adj[n] {
                    if !seen[m] {
                        seen[m] = true;
                        out.push(m);
                        stack.push(m);
                    }
                }
            }
            out
        })
        .collect()
}

/// The first cycle found by a depth-first search from each node in turn,
/// following edges in list order; closed (first node repeated).
fn find_cycle(n: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
    }
    fn dfs(
        n: usize,
        adj: &[Vec<usize>],
        state: &mut [u8],
        parent: &mut [usize],
    ) -> Option<(usize, usize)> {
        state[n] = 1;
        for &m in &adj[n] {
            match state[m] {
                0 => {
                    parent[m] = n;
                    if let Some(hit) = dfs(m, adj, state, parent) {
                        return Some(hit);
                    }
                }
                1 => return Some((n, m)),
                _ => {}
            }
        }
        state[n] = 2;
        None
    }
    let mut state = vec![0u8; n];
    let mut parent = vec![0; n];
    for s in 0..n {
        if state[s] == 0 {
            if let Some((from, to)) = dfs(s, &adj, &mut state, &mut parent) {
                let mut path = vec![from];
                let mut cur = from;
                while cur != to {
                    cur = parent[cur];
                    path.push(cur);
                }
                path.reverse();
                path.push(to);
                return Some(path);
            }
        }
    }
    None
}

fn assert_same(g: &Grammar, what: &str) -> Result<IoRelations, Circularity> {
    let got = check_noncircular(g);
    assert_eq!(got, reference(g), "{}", what);
    got
}

/// Lower `source` and insert the implicit copy-rules, as the driver does
/// before its first circularity check.
fn lowered(source: &str) -> Grammar {
    let (mut g, _) = lower_with_spans(&parse(source).expect("parses")).expect("lowers");
    insert_implicit_copies(&mut g);
    g
}

/// `g` rebuilt with one more rule, `target = source`, at the end of
/// `prod`. Every rule keeps its targets and the order of its arguments
/// (which is all the circularity test reads of it).
fn with_back_edge(g: &Grammar, prod: ProdId, target: AttrOcc, source: AttrOcc) -> Grammar {
    let mut b = AgBuilder::new();
    for s in g.symbols() {
        let name = g.resolve(s.name);
        match s.kind {
            SymbolKind::Terminal => b.terminal(name),
            SymbolKind::Nonterminal => b.nonterminal(name),
            SymbolKind::Limb => b.limb(name),
        };
    }
    for a in g.attrs() {
        let (name, ty) = (g.resolve(a.name), g.resolve(a.type_name));
        match a.class {
            AttrClass::Synthesized => b.synthesized(a.symbol, name, ty),
            AttrClass::Inherited => b.inherited(a.symbol, name, ty),
            AttrClass::Intrinsic => b.intrinsic(a.symbol, name, ty),
            AttrClass::Limb => b.limb_attr(a.symbol, name, ty),
        };
    }
    for (pi, p) in g.productions().iter().enumerate() {
        let id = b.production(p.lhs, p.rhs.clone(), p.limb);
        for &r in &p.rules {
            let rule = g.rule(r);
            let expr = (rule.arguments().into_iter().rev())
                .map(Expr::Occ)
                .reduce(|rest, arg| Expr::binop(BinOp::Add, arg, rest))
                .unwrap_or(Expr::Int(0));
            b.rule(id, rule.targets.clone(), expr);
        }
        if pi == prod.0 as usize {
            b.rule(id, vec![target], Expr::Occ(source));
        }
    }
    b.start(g.start());
    b.build().expect("rebuilt grammar is structurally valid")
}

/// Every back edge that closes a cycle through a child's IO relation:
/// `child.inh = child.syn` wherever `syn` may depend on `inh`.
fn io_back_edges(g: &Grammar, io: &IoRelations) -> Vec<(ProdId, AttrOcc, AttrOcc)> {
    let mut out = Vec::new();
    for (pi, p) in g.productions().iter().enumerate() {
        for (i, &s) in p.rhs.iter().enumerate() {
            let mut pairs: Vec<_> = io.get(&s.0).into_iter().flatten().copied().collect();
            pairs.sort();
            for (inh, syn) in pairs {
                out.push((
                    ProdId(pi as u32),
                    AttrOcc::rhs(i as u16, inh),
                    AttrOcc::rhs(i as u16, syn),
                ));
            }
        }
    }
    out
}

#[test]
fn bundled_grammars_agree_before_and_after_the_optimizer() {
    let mut flowing = 0;
    for (name, source) in [
        ("calc", calc_source()),
        ("knuth", knuth_source()),
        ("block", block_source()),
        ("meta", meta_source()),
        ("pascal", pascal_source()),
    ] {
        let mut g = lowered(source);
        let io = assert_same(&g, name).expect("bundled grammars are non-circular");
        flowing += !io.is_empty() as usize;
        optimize(&mut g);
        assert_same(&g, &format!("{} optimized", name)).expect("still non-circular");
    }
    assert!(
        flowing >= 3,
        "only {} grammars have inherited-to-synthesized flow",
        flowing
    );
}

#[test]
fn generated_grammars_agree() {
    for seed in 0..64u64 {
        let params = SynthParams {
            inherited_attrs: 1 + (seed % 12) as usize,
            list_productions: 1 + (seed % 7) as usize,
            copy_density: (seed % 5) as f64 / 4.0,
            seed,
        };
        let mut g = generate(&params).grammar;
        insert_implicit_copies(&mut g);
        let what = format!("{:?}", params);
        assert_same(&g, &what).expect("generated grammars are non-circular");
        optimize(&mut g);
        assert_same(&g, &format!("{} optimized", what)).expect("still non-circular");
    }
}

#[test]
fn circular_variants_report_the_same_cycle() {
    let mut circular = 0;
    for seed in 0..16u64 {
        let params = SynthParams {
            inherited_attrs: 2 + (seed % 5) as usize,
            list_productions: 1 + (seed % 4) as usize,
            copy_density: 0.5,
            seed,
        };
        let mut g = generate(&params).grammar;
        insert_implicit_copies(&mut g);
        let io = assert_same(&g, "base").expect("non-circular");
        // A rule that reverses an existing edge, and every back edge
        // through a child's IO relation.
        let p = &g.productions()[g.productions().len() - 1];
        let rule = g.rule(*p.rules.last().expect("the last production has rules"));
        let mut edges = vec![];
        if let Some(&arg) = rule.arguments().first() {
            let id = ProdId(g.productions().len() as u32 - 1);
            edges.push((id, arg, rule.targets[0]));
        }
        edges.extend(io_back_edges(&g, &io).into_iter().step_by(3));
        for (prod, target, source) in edges {
            let v = with_back_edge(&g, prod, target, source);
            let what = format!("seed {}: {:?} = {:?} in {:?}", seed, target, source, prod);
            circular += assert_same(&v, &what).is_err() as usize;
        }
    }
    assert!(circular >= 16, "only {} variants were circular", circular);
}

#[test]
fn rule_edges_are_searched_before_child_io_edges() {
    // root -> T U ; T -> x ; U -> y. T.S = T.I and U.K = U.J below; at
    // the root, U.J = T.I and T.I = U.K + T.S. T.I leaves by a rule edge
    // (to U.J) and by a child IO edge (to T.S), each closing a cycle.
    let mut b = AgBuilder::new();
    let root = b.nonterminal("root");
    let t = b.nonterminal("T");
    let ti = b.inherited(t, "I", "int");
    let ts = b.synthesized(t, "S", "int");
    let u = b.nonterminal("U");
    let uj = b.inherited(u, "J", "int");
    let uk = b.synthesized(u, "K", "int");
    let (x, y) = (b.terminal("x"), b.terminal("y"));
    let p0 = b.production(root, vec![t, u], None);
    b.rule(
        p0,
        vec![AttrOcc::rhs(1, uj)],
        Expr::Occ(AttrOcc::rhs(0, ti)),
    );
    b.rule(
        p0,
        vec![AttrOcc::rhs(0, ti)],
        Expr::binop(
            BinOp::Add,
            Expr::Occ(AttrOcc::rhs(1, uk)),
            Expr::Occ(AttrOcc::rhs(0, ts)),
        ),
    );
    let p1 = b.production(t, vec![x], None);
    b.rule(p1, vec![AttrOcc::lhs(ts)], Expr::Occ(AttrOcc::lhs(ti)));
    let p2 = b.production(u, vec![y], None);
    b.rule(p2, vec![AttrOcc::lhs(uk)], Expr::Occ(AttrOcc::lhs(uj)));
    b.start(root);
    let g = b.build().unwrap();
    let err = assert_same(&g, "rule edge first").unwrap_err();
    assert_eq!(
        err.cycle,
        vec![
            AttrOcc::rhs(0, ti),
            AttrOcc::rhs(1, uj),
            AttrOcc::rhs(1, uk),
            AttrOcc::rhs(0, ti)
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized grammar shapes (the differential oracle's generator),
    /// before and after the optimizer, and each with one back edge.
    #[test]
    fn randomized_shapes_agree(params in shape_strategy()) {
        let sg = realize(&params);
        let mut g = lowered(&sg.source);
        let io = assert_same(&g, &sg.name).expect("realized shapes are non-circular");
        if let Some((prod, target, source)) = io_back_edges(&g, &io).into_iter().next() {
            let v = with_back_edge(&g, prod, target, source);
            prop_assert!(assert_same(&v, &format!("{} with a back edge", sg.name)).is_err());
        }
        optimize(&mut g);
        assert_same(&g, &format!("{} optimized", sg.name)).expect("still non-circular");
    }
}
