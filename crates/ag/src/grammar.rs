//! The attribute-grammar model: symbols, attributes, productions, semantic
//! functions.
//!
//! The model follows §I and §IV of the paper directly:
//!
//! * three kinds of symbols — terminals, nonterminals, and **limb** symbols
//!   (the per-production symbols whose attributes name common
//!   subexpressions and which synchronize production identification with
//!   the parser);
//! * four attribute classes — synthesized, inherited, **intrinsic** (set by
//!   the parser before any pass) and limb attributes;
//! * productions with an optional limb and a list of semantic functions,
//!   where one semantic function may define several attribute occurrences
//!   (Figure 5).

use crate::expr::Expr;
use crate::ids::{AttrId, AttrOcc, OccPos, ProdId, RuleId, SymbolId};
use linguist_support::intern::{Name, NameTable};
use std::fmt;

/// What kind of grammar symbol this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// A token of the underlying context-free grammar.
    Terminal,
    /// A phrase symbol.
    Nonterminal,
    /// The "third type of grammar symbol" (§IV): names a production and
    /// carries common-subexpression attributes.
    Limb,
}

/// Classification of an attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttrClass {
    /// Defined by its LHS production; flows up the tree.
    Synthesized,
    /// Defined by its RHS production; flows down the tree.
    Inherited,
    /// "Already defined before attribute evaluation starts" — set by the
    /// parser on terminal leaves (§IV).
    Intrinsic,
    /// A limb attribute: a named common subexpression of one production.
    Limb,
}

/// A grammar symbol.
#[derive(Clone, Debug)]
pub struct Symbol {
    /// Interned name.
    pub name: Name,
    /// Kind.
    pub kind: SymbolKind,
    /// Attributes, in declaration order.
    pub attrs: Vec<AttrId>,
}

/// An attribute of one symbol.
#[derive(Clone, Debug)]
pub struct Attribute {
    /// Owning symbol.
    pub symbol: SymbolId,
    /// Interned attribute name (the unit static subsumption groups by).
    pub name: Name,
    /// Classification.
    pub class: AttrClass,
    /// Uninterpreted type name (§IV: "the types of attributes are
    /// uninterpreted identifiers").
    pub type_name: Name,
}

/// How a semantic function came to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleOrigin {
    /// Written in the input grammar.
    Explicit,
    /// Inserted by the implicit-copy-rule mechanism of §IV.
    Implicit,
}

/// A semantic function: `targets = expr`.
#[derive(Clone, Debug)]
pub struct SemRule {
    /// The production this rule belongs to.
    pub prod: ProdId,
    /// Defined occurrences (one for ordinary rules; several for Figure-5
    /// multi-target rules).
    pub targets: Vec<AttrOcc>,
    /// The defining expression.
    pub expr: Expr,
    /// Explicit or implicit.
    pub origin: RuleOrigin,
}

impl SemRule {
    /// Whether this is a copy-rule: a single target defined by a bare
    /// occurrence.
    pub fn is_copy(&self) -> bool {
        self.targets.len() == 1 && self.expr.as_copy_source().is_some()
    }

    /// For a copy-rule, its source occurrence.
    pub fn copy_source(&self) -> Option<AttrOcc> {
        if self.targets.len() == 1 {
            self.expr.as_copy_source()
        } else {
            None
        }
    }

    /// All argument occurrences of the rule.
    pub fn arguments(&self) -> Vec<AttrOcc> {
        self.expr.arguments()
    }
}

/// A production, possibly with a limb symbol.
#[derive(Clone, Debug)]
pub struct Production {
    /// Left-hand-side nonterminal.
    pub lhs: SymbolId,
    /// Right-hand-side symbols (terminals and nonterminals).
    pub rhs: Vec<SymbolId>,
    /// The limb symbol, if the production has non-trivial semantics.
    pub limb: Option<SymbolId>,
    /// Semantic functions (global rule ids).
    pub rules: Vec<RuleId>,
}

/// Errors detected while assembling a grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The start symbol is not a nonterminal.
    StartNotNonterminal(String),
    /// A limb symbol was used on a production's LHS or RHS.
    LimbInProduction(String),
    /// A production's LHS is not a nonterminal.
    LhsNotNonterminal(String),
    /// A terminal was given a non-intrinsic, non-inherited attribute.
    BadTerminalAttr(String, String),
    /// A limb symbol was given a non-limb attribute (or vice versa).
    BadLimbAttr(String, String),
    /// The start symbol has inherited attributes.
    StartHasInherited(String),
    /// An attribute was declared twice on one symbol.
    DuplicateAttr(String, String),
    /// No start symbol was set.
    NoStart,
    /// A rule target's position is out of range or its attribute does not
    /// belong to the symbol at that position.
    BadOccurrence(String),
    /// A multi-target rule's `if` arms don't match the target count.
    ArmMismatch(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::StartNotNonterminal(s) => {
                write!(f, "start symbol `{}` is not a nonterminal", s)
            }
            BuildError::LimbInProduction(s) => {
                write!(f, "limb symbol `{}` cannot appear in a production body", s)
            }
            BuildError::LhsNotNonterminal(s) => {
                write!(f, "production LHS `{}` is not a nonterminal", s)
            }
            BuildError::BadTerminalAttr(s, a) => write!(
                f,
                "terminal `{}` may only have intrinsic or inherited attributes, `{}` is neither",
                s, a
            ),
            BuildError::BadLimbAttr(s, a) => {
                write!(
                    f,
                    "attribute `{}` on `{}` has the wrong class for the symbol",
                    a, s
                )
            }
            BuildError::StartHasInherited(s) => {
                write!(f, "start symbol `{}` has inherited attributes", s)
            }
            BuildError::DuplicateAttr(s, a) => {
                write!(f, "attribute `{}` declared twice on `{}`", a, s)
            }
            BuildError::NoStart => write!(f, "no start symbol set"),
            BuildError::BadOccurrence(msg) => write!(f, "bad attribute occurrence: {}", msg),
            BuildError::ArmMismatch(msg) => write!(f, "if-arm/target mismatch: {}", msg),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Grammar`].
#[derive(Debug, Default, Clone)]
pub struct AgBuilder {
    names: NameTable,
    symbols: Vec<Symbol>,
    attrs: Vec<Attribute>,
    productions: Vec<Production>,
    rules: Vec<SemRule>,
    start: Option<SymbolId>,
    errors: Vec<BuildError>,
}

impl AgBuilder {
    /// An empty builder.
    pub fn new() -> AgBuilder {
        AgBuilder::default()
    }

    fn symbol(&mut self, name: &str, kind: SymbolKind) -> SymbolId {
        let n = self.names.intern(name);
        if let Some(ix) = self.symbols.iter().position(|s| s.name == n) {
            return SymbolId(ix as u32);
        }
        self.symbols.push(Symbol {
            name: n,
            kind,
            attrs: Vec::new(),
        });
        SymbolId(self.symbols.len() as u32 - 1)
    }

    /// Declare (or fetch) a terminal.
    pub fn terminal(&mut self, name: &str) -> SymbolId {
        self.symbol(name, SymbolKind::Terminal)
    }

    /// Declare (or fetch) a nonterminal.
    pub fn nonterminal(&mut self, name: &str) -> SymbolId {
        self.symbol(name, SymbolKind::Nonterminal)
    }

    /// Declare (or fetch) a limb symbol.
    pub fn limb(&mut self, name: &str) -> SymbolId {
        self.symbol(name, SymbolKind::Limb)
    }

    fn attr(&mut self, sym: SymbolId, name: &str, class: AttrClass, ty: &str) -> AttrId {
        let n = self.names.intern(name);
        let t = self.names.intern(ty);
        if self.symbols[sym.0 as usize]
            .attrs
            .iter()
            .any(|&a| self.attrs[a.0 as usize].name == n)
        {
            let sname = self
                .names
                .resolve(self.symbols[sym.0 as usize].name)
                .to_owned();
            self.errors
                .push(BuildError::DuplicateAttr(sname, name.to_owned()));
        }
        self.attrs.push(Attribute {
            symbol: sym,
            name: n,
            class,
            type_name: t,
        });
        let id = AttrId(self.attrs.len() as u32 - 1);
        self.symbols[sym.0 as usize].attrs.push(id);
        id
    }

    /// Declare a synthesized attribute on `sym`.
    pub fn synthesized(&mut self, sym: SymbolId, name: &str, ty: &str) -> AttrId {
        self.attr(sym, name, AttrClass::Synthesized, ty)
    }

    /// Declare an inherited attribute on `sym`.
    pub fn inherited(&mut self, sym: SymbolId, name: &str, ty: &str) -> AttrId {
        self.attr(sym, name, AttrClass::Inherited, ty)
    }

    /// Declare an intrinsic attribute on terminal `sym`.
    pub fn intrinsic(&mut self, sym: SymbolId, name: &str, ty: &str) -> AttrId {
        self.attr(sym, name, AttrClass::Intrinsic, ty)
    }

    /// Declare a limb attribute on limb symbol `sym`.
    pub fn limb_attr(&mut self, sym: SymbolId, name: &str, ty: &str) -> AttrId {
        self.attr(sym, name, AttrClass::Limb, ty)
    }

    /// Add a production.
    pub fn production(
        &mut self,
        lhs: SymbolId,
        rhs: Vec<SymbolId>,
        limb: Option<SymbolId>,
    ) -> ProdId {
        self.productions.push(Production {
            lhs,
            rhs,
            limb,
            rules: Vec::new(),
        });
        ProdId(self.productions.len() as u32 - 1)
    }

    /// Add a semantic function to production `prod`.
    pub fn rule(&mut self, prod: ProdId, targets: Vec<AttrOcc>, expr: Expr) -> RuleId {
        let id = RuleId(self.rules.len() as u32);
        self.rules.push(SemRule {
            prod,
            targets,
            expr,
            origin: RuleOrigin::Explicit,
        });
        self.productions[prod.0 as usize].rules.push(id);
        id
    }

    /// Set the start symbol.
    pub fn start(&mut self, sym: SymbolId) {
        self.start = Some(sym);
    }

    /// Intern a name for use in expressions (function names, constants).
    pub fn name(&mut self, text: &str) -> Name {
        self.names.intern(text)
    }

    /// Finish and validate the structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first [`BuildError`] found; see that type for the full
    /// catalogue.
    pub fn build(self) -> Result<Grammar, BuildError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let start = self.start.ok_or(BuildError::NoStart)?;
        let mut g = Grammar {
            names: self.names,
            symbols: self.symbols,
            slots: vec![(0, 0); self.attrs.len()],
            attrs: self.attrs,
            productions: self.productions,
            rules: self.rules,
            start,
        };
        g.validate()?;
        for s in 0..g.symbols.len() {
            g.number_slots(SymbolId(s as u32));
        }
        Ok(g)
    }
}

/// A structurally valid attribute grammar.
#[derive(Debug, Clone)]
pub struct Grammar {
    names: NameTable,
    symbols: Vec<Symbol>,
    attrs: Vec<Attribute>,
    /// `(owner symbol, slot)` per attribute; see [`Grammar::attr_slots`].
    slots: Vec<(u32, usize)>,
    productions: Vec<Production>,
    rules: Vec<SemRule>,
    start: SymbolId,
}

impl Grammar {
    fn validate(&self) -> Result<(), BuildError> {
        let sname = |s: SymbolId| {
            self.names
                .resolve(self.symbols[s.0 as usize].name)
                .to_owned()
        };
        if self.symbols[self.start.0 as usize].kind != SymbolKind::Nonterminal {
            return Err(BuildError::StartNotNonterminal(sname(self.start)));
        }
        for a in self.symbols[self.start.0 as usize].attrs.iter() {
            if self.attrs[a.0 as usize].class == AttrClass::Inherited {
                return Err(BuildError::StartHasInherited(sname(self.start)));
            }
        }
        for (ai, a) in self.attrs.iter().enumerate() {
            let kind = self.symbols[a.symbol.0 as usize].kind;
            let aname = self.names.resolve(a.name).to_owned();
            let ok = match kind {
                SymbolKind::Terminal => {
                    matches!(a.class, AttrClass::Intrinsic | AttrClass::Inherited)
                }
                SymbolKind::Nonterminal => {
                    matches!(a.class, AttrClass::Synthesized | AttrClass::Inherited)
                }
                SymbolKind::Limb => a.class == AttrClass::Limb,
            };
            if !ok {
                let s = sname(a.symbol);
                return Err(if kind == SymbolKind::Terminal {
                    BuildError::BadTerminalAttr(s, aname)
                } else {
                    BuildError::BadLimbAttr(s, aname)
                });
            }
            let _ = ai;
        }
        for (pi, p) in self.productions.iter().enumerate() {
            if self.symbols[p.lhs.0 as usize].kind != SymbolKind::Nonterminal {
                return Err(BuildError::LhsNotNonterminal(sname(p.lhs)));
            }
            for &s in &p.rhs {
                if self.symbols[s.0 as usize].kind == SymbolKind::Limb {
                    return Err(BuildError::LimbInProduction(sname(s)));
                }
            }
            if let Some(l) = p.limb {
                if self.symbols[l.0 as usize].kind != SymbolKind::Limb {
                    return Err(BuildError::LimbInProduction(sname(l)));
                }
            }
            for &r in &p.rules {
                let rule = &self.rules[r.0 as usize];
                let width = rule.targets.len();
                if !rule.expr.arms_consistent(width) {
                    return Err(BuildError::ArmMismatch(format!(
                        "production {}: rule defines {} targets",
                        pi, width
                    )));
                }
                for occ in rule.targets.iter().copied().chain(rule.arguments()) {
                    self.check_occ(ProdId(pi as u32), occ)?;
                }
            }
        }
        Ok(())
    }

    fn check_occ(&self, prod: ProdId, occ: AttrOcc) -> Result<(), BuildError> {
        let Some(sym) = self.symbol_at(prod, occ.pos) else {
            return Err(BuildError::BadOccurrence(format!(
                "production {}: no symbol at {}",
                prod.0, occ.pos
            )));
        };
        let attr = &self.attrs[occ.attr.0 as usize];
        if attr.symbol != sym {
            return Err(BuildError::BadOccurrence(format!(
                "production {}: attribute `{}` does not belong to `{}` at {}",
                prod.0,
                self.names.resolve(attr.name),
                self.names.resolve(self.symbols[sym.0 as usize].name),
                occ.pos,
            )));
        }
        Ok(())
    }

    /// The symbol at a position of a production.
    pub fn symbol_at(&self, prod: ProdId, pos: OccPos) -> Option<SymbolId> {
        let p = &self.productions[prod.0 as usize];
        match pos {
            OccPos::Lhs => Some(p.lhs),
            OccPos::Rhs(i) => p.rhs.get(i as usize).copied(),
            OccPos::Limb => p.limb,
        }
    }

    /// The start symbol.
    pub fn start(&self) -> SymbolId {
        self.start
    }

    /// All symbols.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// All attributes.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// All productions.
    pub fn productions(&self) -> &[Production] {
        &self.productions
    }

    /// All semantic functions (explicit and implicit).
    pub fn rules(&self) -> &[SemRule] {
        &self.rules
    }

    /// One symbol.
    pub fn symbol(&self, s: SymbolId) -> &Symbol {
        &self.symbols[s.0 as usize]
    }

    /// One attribute.
    pub fn attr(&self, a: AttrId) -> &Attribute {
        &self.attrs[a.0 as usize]
    }

    /// `(owner symbol, slot)` of every attribute, indexed by attribute id.
    /// An attribute's slot is its position in its owner's declaration
    /// list, so a node's instances fit a dense frame of
    /// `symbol(owner).attrs.len()` entries. The interpreter and generated
    /// evaluators both load records into frames through this one table.
    /// A detached attribute keeps `(0, 0)`: no record written under the
    /// grammar's layout carries one.
    pub fn attr_slots(&self) -> &[(u32, usize)] {
        &self.slots
    }

    /// `a`'s slot in its owner's frame (see [`Grammar::attr_slots`]).
    pub fn slot(&self, a: AttrId) -> usize {
        self.slots[a.0 as usize].1
    }

    fn number_slots(&mut self, sym: SymbolId) {
        for (i, &a) in self.symbols[sym.0 as usize].attrs.iter().enumerate() {
            self.slots[a.0 as usize] = (sym.0, i);
        }
    }

    /// One production.
    pub fn production(&self, p: ProdId) -> &Production {
        &self.productions[p.0 as usize]
    }

    /// One rule.
    pub fn rule(&self, r: RuleId) -> &SemRule {
        &self.rules[r.0 as usize]
    }

    /// Symbol name text.
    pub fn symbol_name(&self, s: SymbolId) -> &str {
        self.names.resolve(self.symbols[s.0 as usize].name)
    }

    /// Attribute name text.
    pub fn attr_name(&self, a: AttrId) -> &str {
        self.names.resolve(self.attrs[a.0 as usize].name)
    }

    /// Resolve an interned name.
    pub fn resolve(&self, n: Name) -> &str {
        self.names.resolve(n)
    }

    /// The attribute named `name` on `sym`, if declared.
    pub fn attr_by_name(&self, sym: SymbolId, name: &str) -> Option<AttrId> {
        let n = self.names.get(name)?;
        self.symbols[sym.0 as usize]
            .attrs
            .iter()
            .copied()
            .find(|&a| self.attrs[a.0 as usize].name == n)
    }

    /// The symbol named `name`, if declared.
    pub fn symbol_by_name(&self, name: &str) -> Option<SymbolId> {
        let n = self.names.get(name)?;
        self.symbols
            .iter()
            .position(|s| s.name == n)
            .map(|i| SymbolId(i as u32))
    }

    /// Add an (implicit) rule — used by the implicit-copy-rule pass.
    pub(crate) fn push_rule(&mut self, rule: SemRule) -> RuleId {
        let id = RuleId(self.rules.len() as u32);
        let prod = rule.prod;
        self.rules.push(rule);
        self.productions[prod.0 as usize].rules.push(id);
        id
    }

    /// Mutable access to one rule — used by the optimizer's transforms.
    pub(crate) fn rule_mut(&mut self, r: RuleId) -> &mut SemRule {
        &mut self.rules[r.0 as usize]
    }

    /// Drop every rule whose `keep` slot is false, compacting the global
    /// rule vector and rewriting each production's rule list. Returns the
    /// old-id → new-id remap so side tables indexed by `RuleId` (lint
    /// spans) can follow the move.
    pub(crate) fn retain_rules(&mut self, keep: &[bool]) -> Vec<Option<RuleId>> {
        debug_assert_eq!(keep.len(), self.rules.len());
        let mut remap: Vec<Option<RuleId>> = vec![None; self.rules.len()];
        let mut next = 0u32;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                remap[i] = Some(RuleId(next));
                next += 1;
            }
        }
        let mut i = 0;
        self.rules.retain(|_| {
            let kept = keep[i];
            i += 1;
            kept
        });
        for p in &mut self.productions {
            p.rules = p
                .rules
                .iter()
                .filter_map(|&r| remap[r.0 as usize])
                .collect();
        }
        remap
    }

    /// Detach an attribute from its owning symbol's declaration list. The
    /// `Attribute` record itself stays — `AttrId`s are never renumbered,
    /// because serialized outputs and span tables embed the raw ids — but
    /// a detached attribute vanishes from the storage layout, the
    /// required-target sets, and the pass schedule.
    pub(crate) fn detach_attr(&mut self, a: AttrId) {
        let sym = self.attrs[a.0 as usize].symbol;
        self.symbols[sym.0 as usize].attrs.retain(|&x| x != a);
        self.slots[a.0 as usize] = (0, 0);
        self.number_slots(sym);
    }

    /// Every attribute occurrence a production's rules must define: all
    /// synthesized attributes of the LHS, all inherited attributes of each
    /// RHS occurrence, and all limb attributes (§I + §IV).
    pub fn required_targets(&self, prod: ProdId) -> Vec<AttrOcc> {
        let p = &self.productions[prod.0 as usize];
        let mut out = Vec::new();
        for &a in &self.symbols[p.lhs.0 as usize].attrs {
            if self.attrs[a.0 as usize].class == AttrClass::Synthesized {
                out.push(AttrOcc::lhs(a));
            }
        }
        for (i, &s) in p.rhs.iter().enumerate() {
            for &a in &self.symbols[s.0 as usize].attrs {
                if self.attrs[a.0 as usize].class == AttrClass::Inherited {
                    out.push(AttrOcc::rhs(i as u16, a));
                }
            }
        }
        if let Some(l) = p.limb {
            for &a in &self.symbols[l.0 as usize].attrs {
                out.push(AttrOcc::limb(a));
            }
        }
        out
    }

    /// The occurrences actually defined by a production's rules (with
    /// multiplicity, for duplicate detection).
    pub fn defined_targets(&self, prod: ProdId) -> Vec<AttrOcc> {
        self.productions[prod.0 as usize]
            .rules
            .iter()
            .flat_map(|&r| self.rules[r.0 as usize].targets.iter().copied())
            .collect()
    }

    /// Total number of attribute occurrences across all productions (the
    /// paper's "1202 attribute-occurrences" statistic): for each
    /// production, every attribute of every symbol occurrence (LHS, RHS,
    /// limb).
    pub fn num_occurrences(&self) -> usize {
        self.productions
            .iter()
            .map(|p| {
                let mut n = self.symbols[p.lhs.0 as usize].attrs.len();
                for &s in &p.rhs {
                    n += self.symbols[s.0 as usize].attrs.len();
                }
                if let Some(l) = p.limb {
                    n += self.symbols[l.0 as usize].attrs.len();
                }
                n
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn build_minimal_grammar() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let v = b.synthesized(s, "VAL", "int");
        let x = b.terminal("x");
        let obj = b.intrinsic(x, "OBJ", "int");
        let p = b.production(s, vec![x], None);
        b.rule(p, vec![AttrOcc::lhs(v)], Expr::Occ(AttrOcc::rhs(0, obj)));
        b.start(s);
        let g = b.build().unwrap();
        assert_eq!(g.symbols().len(), 2);
        assert_eq!(g.attrs().len(), 2);
        assert_eq!(g.rules().len(), 1);
        assert!(g.rule(RuleId(0)).is_copy());
    }

    #[test]
    fn slots_number_each_symbols_attributes_and_follow_detachment() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let x = b.terminal("x");
        let obj = b.intrinsic(x, "OBJ", "int");
        let a = b.synthesized(s, "A", "int");
        let dead = b.synthesized(s, "DEAD", "int");
        let c = b.synthesized(s, "C", "int");
        b.production(s, vec![x], None);
        b.start(s);
        let mut g = b.build().unwrap();
        assert_eq!(g.attr_slots(), &[(1, 0), (0, 0), (0, 1), (0, 2)]);
        assert_eq!((g.slot(obj), g.slot(a), g.slot(c)), (0, 0, 2));
        g.detach_attr(dead);
        assert_eq!(g.slot(c), 1, "later attributes close the gap");
        assert_eq!(g.attr_slots()[dead.0 as usize], (0, 0));
    }

    #[test]
    fn start_must_be_nonterminal() {
        let mut b = AgBuilder::new();
        let x = b.terminal("x");
        let s = b.nonterminal("S");
        b.production(s, vec![x], None);
        b.start(x);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::StartNotNonterminal(_)
        ));
    }

    #[test]
    fn start_cannot_have_inherited() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        b.inherited(s, "ENV", "env");
        b.production(s, vec![], None);
        b.start(s);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::StartHasInherited(_)
        ));
    }

    #[test]
    fn terminal_cannot_have_synthesized() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let x = b.terminal("x");
        b.synthesized(x, "BAD", "int");
        b.production(s, vec![x], None);
        b.start(s);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::BadTerminalAttr(_, _)
        ));
    }

    #[test]
    fn limb_cannot_appear_in_rhs() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let l = b.limb("L");
        b.production(s, vec![l], None);
        b.start(s);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::LimbInProduction(_)
        ));
    }

    #[test]
    fn occurrence_must_match_symbol() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let v = b.synthesized(s, "VAL", "int");
        let t = b.nonterminal("T");
        let w = b.synthesized(t, "W", "int");
        let p = b.production(s, vec![], None);
        b.production(t, vec![], None);
        // Rule references T's attribute on S's production LHS.
        b.rule(p, vec![AttrOcc::lhs(w)], Expr::Int(0));
        let _ = v;
        b.start(s);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::BadOccurrence(_)
        ));
    }

    #[test]
    fn duplicate_attr_rejected() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        b.synthesized(s, "A", "int");
        b.synthesized(s, "A", "int");
        b.production(s, vec![], None);
        b.start(s);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::DuplicateAttr(_, _)
        ));
    }

    #[test]
    fn required_targets_cover_syn_inh_limb() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let sv = b.synthesized(s, "V", "int");
        let si = b.inherited(s, "E", "env");
        let t = b.nonterminal("T");
        let tv = b.synthesized(t, "V", "int");
        let ti = b.inherited(t, "E", "env");
        let l = b.limb("P");
        let le = b.limb_attr(l, "TMP", "int");
        // S -> T T with limb P. (Start S has inherited E? No — make another
        // start wrapper.)
        let root = b.nonterminal("Root");
        let rv = b.synthesized(root, "V", "int");
        let p0 = b.production(root, vec![s], None);
        b.rule(p0, vec![AttrOcc::lhs(rv)], Expr::Occ(AttrOcc::rhs(0, sv)));
        b.rule(p0, vec![AttrOcc::rhs(0, si)], Expr::Int(0));
        let p = b.production(s, vec![t, t], Some(l));
        b.start(root);
        // fill rules for p so build passes occurrence checks trivially
        b.rule(p, vec![AttrOcc::lhs(sv)], Expr::Int(1));
        b.rule(p, vec![AttrOcc::rhs(0, ti)], Expr::Occ(AttrOcc::lhs(si)));
        b.rule(p, vec![AttrOcc::rhs(1, ti)], Expr::Occ(AttrOcc::lhs(si)));
        b.rule(p, vec![AttrOcc::limb(le)], Expr::Int(2));
        let pt = b.production(t, vec![], None);
        b.rule(pt, vec![AttrOcc::lhs(tv)], Expr::Int(3));
        let g = b.build().unwrap();
        let req = g.required_targets(p);
        assert_eq!(req.len(), 4); // S.V syn, T.E ×2, limb TMP
        assert!(req.contains(&AttrOcc::lhs(sv)));
        assert!(req.contains(&AttrOcc::rhs(0, ti)));
        assert!(req.contains(&AttrOcc::rhs(1, ti)));
        assert!(req.contains(&AttrOcc::limb(le)));
    }

    #[test]
    fn num_occurrences_counts_all_positions() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let v = b.synthesized(s, "V", "int");
        let x = b.terminal("x");
        b.intrinsic(x, "OBJ", "int");
        let p = b.production(s, vec![x, x], None);
        b.rule(p, vec![AttrOcc::lhs(v)], Expr::Int(0));
        b.start(s);
        let g = b.build().unwrap();
        // LHS S has 1 attr, two x occurrences have 1 each = 3.
        assert_eq!(g.num_occurrences(), 3);
    }

    #[test]
    fn arm_mismatch_rejected() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let v1 = b.synthesized(s, "A", "int");
        let v2 = b.synthesized(s, "B", "int");
        let p = b.production(s, vec![], None);
        // Two targets, but arms of width 1.
        b.rule(
            p,
            vec![AttrOcc::lhs(v1), AttrOcc::lhs(v2)],
            Expr::ite(Expr::Bool(true), Expr::Int(1), Expr::Int(2)),
        );
        b.start(s);
        assert!(matches!(b.build().unwrap_err(), BuildError::ArmMismatch(_)));
    }
}
