//! Non-circularity: the polynomial sufficient test.
//!
//! §I: "it is an exponentially hard problem \[JOR\] to determine that an
//! attribute grammar is non-circular … Fortunately there are several
//! interesting and widely applicable sufficient conditions that can be
//! checked in polynomial time". This module implements the classic
//! *uniform* (strong) test: one induced inherited→synthesized dependency
//! relation per symbol, iterated to a fixed point, then a cycle check of
//! every production graph augmented with those relations. No cycle ⇒ the
//! grammar is certainly non-circular; a cycle here is reported as
//! (potential) circularity.

use crate::grammar::{AttrClass, Grammar, Production, Symbol, SymbolKind};
use crate::ids::{AttrId, AttrOcc, OccPos, ProdId};
use std::collections::{HashMap, HashSet, VecDeque};

/// A potential circularity: a dependency cycle in a production graph.
///
/// The cycle is kept as structured occurrences (closed: the first
/// occurrence repeats at the end); the lint layer ([`crate::lint`])
/// renders it with symbol/attribute names and the production's source
/// span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Circularity {
    /// The production whose augmented graph has the cycle.
    pub prod: ProdId,
    /// The cycle, as attribute occurrences of `prod`.
    pub cycle: Vec<AttrOcc>,
}

/// Induced dependency relations per symbol: `(inherited, synthesized)`
/// pairs meaning the synthesized attribute may depend on the inherited one
/// at the same node.
pub type IoRelations = HashMap<u32, HashSet<(AttrId, AttrId)>>;

/// Run the sufficient non-circularity test.
///
/// Returns the per-symbol induced IO relations on success (useful to
/// inspect information flow), or the first cycle found.
///
/// Relations are bit matrices over attribute slots ([`Grammar::slot`]),
/// iterated with a worklist; the reported cycle is the same on every call.
///
/// # Errors
///
/// Returns [`Circularity`] describing a dependency cycle if the uniform
/// test cannot prove the grammar non-circular.
pub fn check_noncircular(g: &Grammar) -> Result<IoRelations, Circularity> {
    let prods = g.productions();
    let graphs: Vec<ProdGraph> = prods.iter().map(|p| ProdGraph::new(g, p)).collect();
    let masks = |class| -> Vec<Vec<u64>> {
        let mask = |s: &Symbol| {
            let mut m = vec![0; words(s.attrs.len())];
            (s.attrs.iter().enumerate())
                .filter(|&(_, &a)| g.attr(a).class == class)
                .for_each(|(slot, _)| set(&mut m, slot));
            m
        };
        g.symbols().iter().map(mask).collect()
    };
    let (inh, syn) = (masks(AttrClass::Inherited), masks(AttrClass::Synthesized));
    // Symbol `s`'s relation: row `a` holds the synthesized slots that may
    // depend on inherited slot `a`.
    let mut rel: Vec<Vec<u64>> = (g.symbols().iter())
        .map(|s| vec![0; s.attrs.len() * words(s.attrs.len())])
        .collect();
    // The productions each symbol's relation feeds.
    let mut users = vec![Vec::new(); rel.len()];
    for (p, graph) in graphs.iter().enumerate() {
        for &(_, s, _) in &graph.children {
            users[s].push(p);
        }
    }

    let mut queued = vec![true; prods.len()];
    let mut work: VecDeque<usize> = (0..prods.len()).collect();
    let (mut rows, mut seen, mut stack) = (Vec::new(), Vec::new(), Vec::new());
    while let Some(p) = work.pop_front() {
        queued[p] = false;
        let graph = &graphs[p];
        graph.augment(&rel, &mut rows);
        let lhs = prods[p].lhs.0 as usize;
        let lw = syn[lhs].len();
        let mut grew = false;
        for a in ones(&inh[lhs]) {
            reach(&rows, graph.words, a, &mut seen, &mut stack);
            for (i, cell) in rel[lhs][a * lw..(a + 1) * lw].iter_mut().enumerate() {
                let new = seen[i] & syn[lhs][i] & !*cell;
                *cell |= new;
                grew |= new != 0;
            }
        }
        for &u in users[lhs].iter().filter(|_| grew) {
            if !std::mem::replace(&mut queued[u], true) {
                work.push_back(u);
            }
        }
    }

    for (p, graph) in graphs.iter().enumerate() {
        graph.augment(&rel, &mut rows);
        let next = |v, i| next_bit(graph.row(&rows, v), i).map(|m| (m, m + 1));
        if dfs(graph.occs.len(), next).is_some() {
            return Err(graph.find_cycle(ProdId(p as u32), &rows));
        }
    }
    let mut io = IoRelations::new();
    for (s, sym) in g.symbols().iter().enumerate() {
        let pairs = pairs(&rel[s], sym.attrs.len()).map(|(a, b)| (sym.attrs[a], sym.attrs[b]));
        io.entry(s as u32).or_default().extend(pairs);
    }
    io.retain(|_, pairs| !pairs.is_empty());
    Ok(io)
}

/// The dependency graph of one production over its attribute
/// occurrences `occs`: the LHS's, each RHS symbol's, then the limb's,
/// each symbol's in slot order.
struct ProdGraph {
    occs: Vec<AttrOcc>,
    /// Rule edges (argument → target), in rule order.
    edges: Vec<(usize, usize)>,
    /// The rule edges as one bit row of `words` words per occurrence.
    words: usize,
    base: Vec<u64>,
    /// `(offset, symbol, width)` of each nonterminal RHS occurrence.
    children: Vec<(usize, usize, usize)>,
}

impl ProdGraph {
    fn new(g: &Grammar, prod: &Production) -> ProdGraph {
        let (mut off, mut occs, mut children) = (Vec::new(), Vec::new(), Vec::new());
        let rhs = (prod.rhs.iter().enumerate()).map(|(i, &s)| (OccPos::Rhs(i as u16), s));
        let limb = prod.limb.map(|l| (OccPos::Limb, l));
        let lhs = std::iter::once((OccPos::Lhs, prod.lhs));
        for (pos, s) in lhs.chain(rhs).chain(limb) {
            let sym = g.symbol(s);
            if matches!(pos, OccPos::Rhs(_)) && sym.kind == SymbolKind::Nonterminal {
                children.push((occs.len(), s.0 as usize, sym.attrs.len()));
            }
            off.push(occs.len());
            occs.extend(sym.attrs.iter().map(|&attr| AttrOcc { pos, attr }));
        }
        let index = |occ: AttrOcc| match occ.pos {
            OccPos::Lhs => g.slot(occ.attr),
            OccPos::Rhs(i) => off[1 + i as usize] + g.slot(occ.attr),
            OccPos::Limb => off[off.len() - 1] + g.slot(occ.attr),
        };
        let edges: Vec<_> = (prod.rules.iter().map(|&r| g.rule(r)))
            .flat_map(|rule| {
                let targets = rule.targets.iter().map(|&t| index(t));
                (rule.arguments().into_iter())
                    .flat_map(move |a| targets.clone().map(move |t| (index(a), t)))
            })
            .collect();
        let words = words(occs.len());
        let mut base = vec![0; occs.len() * words];
        for &(from, to) in &edges {
            set(&mut base[from * words..], to);
        }
        ProdGraph {
            occs,
            edges,
            words,
            base,
            children,
        }
    }

    fn row<'a>(&self, rows: &'a [u64], v: usize) -> &'a [u64] {
        &rows[v * self.words..(v + 1) * self.words]
    }

    /// The rule edges plus the children's current IO edges, into `rows`.
    fn augment(&self, rel: &[Vec<u64>], rows: &mut Vec<u64>) {
        rows.clear();
        rows.extend_from_slice(&self.base);
        for &(o, s, width) in &self.children {
            for (a, b) in pairs(&rel[s], width) {
                set(&mut rows[(o + a) * self.words..], o + b);
            }
        }
    }

    /// The cycle to report, from the augmented `rows`: the first one found
    /// taking each occurrence's rule edges in rule order, then its child IO
    /// edges in slot order. (Its row repeats the rule edges among the IO
    /// edges; a repeated edge changes no search.)
    fn find_cycle(&self, prod: ProdId, rows: &[u64]) -> Circularity {
        let mut adj = vec![Vec::new(); self.occs.len()];
        for &(from, to) in &self.edges {
            adj[from].push(to);
        }
        for (v, succ) in adj.iter_mut().enumerate() {
            succ.extend(ones(self.row(rows, v)));
        }
        let cycle = dfs(adj.len(), |v, i| adj[v].get(i).map(|&m| (m, i + 1)));
        let cycle = cycle.expect("find_cycle runs on cyclic graphs only");
        Circularity {
            prod,
            cycle: cycle.into_iter().map(|v| self.occs[v]).collect(),
        }
    }
}

/// The first cycle a depth-first search from each of `n` nodes in turn
/// finds, closed (its first node repeated at the end). `next(v, i)` is
/// `v`'s first successor at or after cursor `i`, with the cursor after it.
fn dfs(n: usize, next: impl Fn(usize, usize) -> Option<(usize, usize)>) -> Option<Vec<usize>> {
    // 0 = unvisited, 1 = on the search path, 2 = done.
    let mut state = vec![0u8; n];
    let mut path = Vec::new();
    for s in 0..n {
        if state[s] != 0 {
            continue;
        }
        state[s] = 1;
        path.push((s, 0));
        while let Some((v, i)) = path.pop() {
            let Some((m, j)) = next(v, i) else {
                state[v] = 2;
                continue;
            };
            path.push((v, j));
            if state[m] == 0 {
                state[m] = 1;
                path.push((m, 0));
            } else if state[m] == 1 {
                let at = path.iter().position(|&(u, _)| u == m).expect("on the path");
                return Some(path[at..].iter().map(|&(u, _)| u).chain([m]).collect());
            }
        }
    }
    None
}

/// The relation of a symbol with `width` slots as (inherited slot,
/// synthesized slot) pairs, in slot order.
fn pairs(rel: &[u64], width: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let rows = rel.chunks(words(width).max(1)).enumerate();
    rows.flat_map(|(a, row)| ones(row).map(move |b| (a, b)))
}

/// Mark in `seen` every occurrence reachable from `from` along `rows`.
fn reach(rows: &[u64], words: usize, from: usize, seen: &mut Vec<u64>, stack: &mut Vec<usize>) {
    seen.clear();
    seen.resize(words, 0);
    stack.push(from);
    while let Some(v) = stack.pop() {
        for (i, s) in seen.iter_mut().enumerate() {
            let new = rows[v * words + i] & !*s;
            *s |= new;
            stack.extend(ones(&[new]).map(|b| i * 64 + b));
        }
    }
}

/// The first set bit of `row` at or after `from`.
fn next_bit(row: &[u64], from: usize) -> Option<usize> {
    (from / 64..row.len()).find_map(|w| {
        let low = if w == from / 64 { from % 64 } else { 0 };
        let x = row[w] >> low << low;
        (x != 0).then(|| w * 64 + x.trailing_zeros() as usize)
    })
}

fn words(bits: usize) -> usize {
    bits.div_ceil(64)
}

fn set(row: &mut [u64], bit: usize) {
    row[bit / 64] |= 1 << (bit % 64);
}

/// The set bits of a row, ascending.
fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(next_bit(row, 0), |&b| next_bit(row, b + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::grammar::AgBuilder;

    #[test]
    fn simple_grammar_is_noncircular() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let v = b.synthesized(s, "V", "int");
        let p = b.production(s, vec![], None);
        b.rule(p, vec![AttrOcc::lhs(v)], Expr::Int(1));
        b.start(s);
        let g = b.build().unwrap();
        assert!(check_noncircular(&g).is_ok());
    }

    #[test]
    fn direct_cycle_within_production_detected() {
        // S.A depends on S.B and S.B on S.A (both limb-free LHS syn).
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let a = b.synthesized(s, "A", "int");
        let c = b.synthesized(s, "B", "int");
        let p = b.production(s, vec![], None);
        b.rule(p, vec![AttrOcc::lhs(a)], Expr::Occ(AttrOcc::lhs(c)));
        b.rule(p, vec![AttrOcc::lhs(c)], Expr::Occ(AttrOcc::lhs(a)));
        b.start(s);
        let g = b.build().unwrap();
        let err = check_noncircular(&g).unwrap_err();
        assert_eq!(err.prod, ProdId(0));
        // The cycle is closed (first occurrence repeated) and runs
        // through both LHS occurrences.
        assert_eq!(err.cycle.first(), err.cycle.last());
        assert!(err.cycle.contains(&AttrOcc::lhs(a)));
        assert!(err.cycle.contains(&AttrOcc::lhs(c)));
    }

    #[test]
    fn cycle_through_child_io_detected() {
        // root -> T ; T -> x.
        // In root: T.I = T.S (parent feeds child's syn back as inherited).
        // In T -> x: T.S = T.I. Induced IO of T: I -> S; root's graph then
        // has T.I -> T.S -> T.I : a cycle.
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        let rv = b.synthesized(root, "V", "int");
        let t = b.nonterminal("T");
        let ti = b.inherited(t, "I", "int");
        let ts = b.synthesized(t, "S", "int");
        let x = b.terminal("x");
        let p0 = b.production(root, vec![t], None);
        b.rule(
            p0,
            vec![AttrOcc::rhs(0, ti)],
            Expr::Occ(AttrOcc::rhs(0, ts)),
        );
        b.rule(p0, vec![AttrOcc::lhs(rv)], Expr::Occ(AttrOcc::rhs(0, ts)));
        let p1 = b.production(t, vec![x], None);
        b.rule(p1, vec![AttrOcc::lhs(ts)], Expr::Occ(AttrOcc::lhs(ti)));
        b.start(root);
        let g = b.build().unwrap();
        let err = check_noncircular(&g).unwrap_err();
        assert_eq!(err.prod, ProdId(0));
    }

    #[test]
    fn reported_cycle_is_the_same_on_every_call() {
        // root -> T ; T -> x. In T -> x: T.S1 = T.I and T.S2 = T.I. In
        // root: T.I = T.S1 + T.S2. Both T.I -> T.S1 -> T.I and
        // T.I -> T.S2 -> T.I close a cycle; the one through the lower
        // slot (S1) is the one reported.
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        let t = b.nonterminal("T");
        let ti = b.inherited(t, "I", "int");
        let s1 = b.synthesized(t, "S1", "int");
        let s2 = b.synthesized(t, "S2", "int");
        let x = b.terminal("x");
        let p0 = b.production(root, vec![t], None);
        b.rule(
            p0,
            vec![AttrOcc::rhs(0, ti)],
            Expr::binop(
                crate::expr::BinOp::Add,
                Expr::Occ(AttrOcc::rhs(0, s1)),
                Expr::Occ(AttrOcc::rhs(0, s2)),
            ),
        );
        let p1 = b.production(t, vec![x], None);
        b.rule(p1, vec![AttrOcc::lhs(s1)], Expr::Occ(AttrOcc::lhs(ti)));
        b.rule(p1, vec![AttrOcc::lhs(s2)], Expr::Occ(AttrOcc::lhs(ti)));
        b.start(root);
        let g = b.build().unwrap();
        let cycles: HashSet<Vec<AttrOcc>> = (0..100)
            .map(|_| check_noncircular(&g).unwrap_err().cycle)
            .collect();
        let expected = vec![
            AttrOcc::rhs(0, ti),
            AttrOcc::rhs(0, s1),
            AttrOcc::rhs(0, ti),
        ];
        assert_eq!(cycles, HashSet::from([expected]));
    }

    #[test]
    fn io_relations_capture_information_flow() {
        // T.S = T.I through T -> x, so IO(T) = {(I, S)}.
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        let rv = b.synthesized(root, "V", "int");
        let t = b.nonterminal("T");
        let ti = b.inherited(t, "I", "int");
        let ts = b.synthesized(t, "S", "int");
        let x = b.terminal("x");
        let p0 = b.production(root, vec![t], None);
        b.rule(p0, vec![AttrOcc::rhs(0, ti)], Expr::Int(1));
        b.rule(p0, vec![AttrOcc::lhs(rv)], Expr::Occ(AttrOcc::rhs(0, ts)));
        let p1 = b.production(t, vec![x], None);
        b.rule(p1, vec![AttrOcc::lhs(ts)], Expr::Occ(AttrOcc::lhs(ti)));
        b.start(root);
        let g = b.build().unwrap();
        let io = check_noncircular(&g).unwrap();
        let t_id = g.symbol_by_name("T").unwrap();
        assert!(io.get(&t_id.0).unwrap().contains(&(ti, ts)));
    }

    #[test]
    fn chain_grammar_noncircular_with_deep_nesting() {
        // S -> S x | x with S.V = inner S.V + 1: no cycles.
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let v = b.synthesized(s, "V", "int");
        let x = b.terminal("x");
        let p0 = b.production(s, vec![s, x], None);
        b.rule(
            p0,
            vec![AttrOcc::lhs(v)],
            Expr::binop(
                crate::expr::BinOp::Add,
                Expr::Occ(AttrOcc::rhs(0, v)),
                Expr::Int(1),
            ),
        );
        let p1 = b.production(s, vec![x], None);
        b.rule(p1, vec![AttrOcc::lhs(v)], Expr::Int(0));
        b.start(s);
        let g = b.build().unwrap();
        assert!(check_noncircular(&g).is_ok());
    }
}
