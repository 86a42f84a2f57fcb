//! Compilable-Rust evaluator generation.
//!
//! Where [`crate::emit`] renders the paper's *code-size* tables (Pascal-ish
//! text that is measured, not run), this module emits a **complete Rust
//! evaluator** for one analyzed grammar: the per-pass production
//! procedures compiled from the same [`ProcPlan`]s the interpreter
//! executes, and a `main` that reads a boundary-0 APT file on stdin and
//! writes the encoded root outputs on stdout.
//!
//! Plans are the common IR and `linguist-eval` is the only runtime: the
//! generated code links it for values, APT framing, the standard
//! functions (each call site resolved at generation time to its entry in
//! [`BUILTINS`](linguist_eval::funcs::BUILTINS)) and the infix operators.
//! The source is built two ways: checked in as a workspace member (the
//! engine's AOT path), or written out as a standalone crate by
//! `linguist codegen`, whose manifest names `linguist-eval` by the path
//! of the source tree this crate was built from.
//!
//! Byte-compatibility with the interpreter is the contract: for every
//! valid input the compiled evaluator must produce exactly the outputs of
//! the interpreter. The generation therefore mirrors `eval::machine` step
//! for step — slot frames instead of hash maps, `let`-bound locals
//! instead of the locals map, but the same visit order, the same record
//! filters (alive-across ∩ present, sorted by attribute id), and the same
//! operator semantics.
//!
//! [`ProcPlan`]: linguist_ag::plan::ProcPlan

use linguist_ag::analysis::Analysis;
use linguist_ag::expr::Expr;
use linguist_ag::grammar::{AttrClass, Grammar};
use linguist_ag::ids::{AttrId, AttrOcc, OccPos, ProdId, SymbolId};
use linguist_ag::passes::Direction;
use linguist_ag::plan::Step;
use linguist_eval::funcs::{builtin_index, BUILTINS};
use std::path::Path;

/// FNV-1a 64-bit content hash, rendered as 16 hex digits — the key the
/// engine uses to match grammars to compiled artifacts (same function,
/// same rendering as the serve tier's grammar handles:
/// `linguist_support::fnv`).
pub fn content_hash(bytes: &[u8]) -> String {
    linguist_support::fnv::hex16(linguist_support::fnv::hash(bytes))
}

/// Files of a generated evaluator crate: `(relative path, contents)`.
///
/// With `standalone_bin` the crate is written for out-of-tree use: a
/// `[workspace]` table detaches it from any enclosing workspace, the
/// source becomes `src/main.rs`, and `linguist-eval` is named by the
/// absolute path of the source tree this crate was built from. Without
/// it the layout is a library suitable for checking in as a workspace
/// member (the AOT path), depending on the workspace's `linguist-eval`.
pub fn crate_files(
    analysis: &Analysis,
    crate_name: &str,
    standalone_bin: bool,
) -> Vec<(String, String)> {
    let (dependency, workspace, src_path) = if standalone_bin {
        let eval = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("crates/codegen has a parent")
            .join("eval");
        let dependency = format!(
            "linguist-eval = {{ path = {:?} }}",
            eval.display().to_string()
        );
        (dependency, "\n[workspace]\n", "src/main.rs")
    } else {
        (
            "linguist-eval.workspace = true".to_string(),
            "",
            "src/lib.rs",
        )
    };
    let manifest = format!(
        "[package]\nname = \"{}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
         [dependencies]\n{}\n{}",
        crate_name, dependency, workspace
    );
    vec![
        ("Cargo.toml".to_string(), manifest),
        (src_path.to_string(), rust_source(analysis)),
    ]
}

/// Generate the complete evaluator source for an analyzed grammar.
///
/// The output is deterministic: same analysis, same bytes. The engine
/// relies on that to content-address compiled artifacts.
pub fn rust_source(analysis: &Analysis) -> String {
    Gen::new(analysis).render()
}

/// `(owner symbol, dense slot index within it)` of every attribute.
fn attr_slots(g: &Grammar) -> Vec<(u32, usize)> {
    let mut slots = vec![(0u32, 0usize); g.attrs().len()];
    for (si, sym) in g.symbols().iter().enumerate() {
        for (i, &a) in sym.attrs.iter().enumerate() {
            slots[a.0 as usize] = (si as u32, i);
        }
    }
    slots
}

struct Gen<'a> {
    analysis: &'a Analysis,
    slots: Vec<(u32, usize)>,
    out: String,
}

impl<'a> Gen<'a> {
    fn new(analysis: &'a Analysis) -> Gen<'a> {
        Gen {
            analysis,
            slots: attr_slots(&analysis.grammar),
            out: String::new(),
        }
    }

    fn g(&self) -> &'a Grammar {
        &self.analysis.grammar
    }

    fn num_passes(&self) -> u16 {
        self.analysis.passes.num_passes() as u16
    }

    fn prefix(&self) -> bool {
        self.num_passes() > 0 && self.analysis.passes.direction(1) == Direction::LeftToRight
    }

    fn nslots(&self, s: SymbolId) -> usize {
        self.g().symbol(s).attrs.len()
    }

    fn slot(&self, a: AttrId) -> usize {
        self.slots[a.0 as usize].1
    }

    /// `(attr, slot)` pairs of `sym`'s attributes alive across boundary
    /// `k`, sorted by attribute id — the static form of the
    /// declaration-order-then-sort filter in `NodeState::to_record`.
    fn alive(&self, sym: SymbolId, k: u16) -> Vec<(u32, usize)> {
        let mut rows: Vec<(u32, usize)> = self
            .g()
            .symbol(sym)
            .attrs
            .iter()
            .filter(|&&a| self.analysis.lifetimes.alive_across(a, k))
            .map(|&a| (a.0, self.slot(a)))
            .collect();
        rows.sort_by_key(|&(a, _)| a);
        rows
    }

    fn ln(&mut self, indent: usize, line: &str) {
        for _ in 0..indent {
            self.out.push_str("    ");
        }
        self.out.push_str(line);
        self.out.push('\n');
    }

    fn render(mut self) -> String {
        let g = self.g();
        let n = self.num_passes();
        self.ln(
            0,
            "// Generated by linguist-codegen (rustgen). DO NOT EDIT.",
        );
        self.ln(
            0,
            &format!(
                "// start symbol: {}; passes: {}; first direction: {}",
                g.resolve(g.symbol(g.start()).name),
                n,
                if self.prefix() {
                    "left-to-right (prefix boundary-0)"
                } else {
                    "right-to-left (postfix boundary-0)"
                }
            ),
        );
        self.ln(
            0,
            "// The engine matches this source to a grammar by FNV-1a content hash;",
        );
        self.ln(
            0,
            "// editing it by hand orphans the artifact and forces interpreter fallback.",
        );
        self.ln(0, "#![allow(warnings, clippy::all)]");
        self.ln(0, "");
        self.ln(
            0,
            "use linguist_eval::compiled::{collect_alive, fill_slots, AttrId, BinOp, Name, ProdId, SymbolId};",
        );
        self.ln(0, "use linguist_eval::funcs::{FuncError, BUILTINS};");
        self.ln(
            0,
            "use linguist_eval::{apply_binop, AptReader, AptWriter, EvalError, ReadDir, Record, RecordBody, Value};",
        );
        self.ln(0, "use std::sync::Arc;");
        self.ln(0, "");
        self.emit_consts();
        for k in 1..=n {
            self.emit_visit(k);
            self.emit_run_pass(k);
        }
        self.emit_evaluate();
        self.emit_main();
        self.out
    }

    fn emit_consts(&mut self) {
        let g = self.g();
        let n = self.num_passes();
        self.ln(0, &format!("pub const NUM_PASSES: u16 = {};", n));
        self.ln(
            0,
            &format!("pub const PREFIX_STRATEGY: bool = {};", self.prefix()),
        );
        self.ln(
            0,
            &format!("pub const START_SYMBOL: u32 = {};", g.start().0),
        );
        let outputs = self.outputs();
        self.ln(
            0,
            &format!("pub const OUTPUT_COUNT: usize = {};", outputs.len()),
        );
        self.ln(0, "");
        // Attribute → (owner symbol, slot within it).
        let rows: Vec<String> = self
            .slots
            .iter()
            .map(|(sym, slot)| format!("({}, {})", sym, slot))
            .collect();
        self.ln(
            0,
            &format!(
                "static ATTR_SLOT: &[(u32, usize)] = &[{}];",
                rows.join(", ")
            ),
        );
        self.ln(0, "");
        // Alive-across tables per (symbol, boundary).
        for k in 1..=n {
            for (si, sym) in g.symbols().iter().enumerate() {
                let rows = self.alive(SymbolId(si as u32), k);
                let body: Vec<String> = rows
                    .iter()
                    .map(|&(a, s)| format!("({}u32, {}usize)", a, s))
                    .collect();
                self.ln(
                    0,
                    &format!(
                        "static ALIVE_S{}_P{}: &[(u32, usize)] = &[{}]; // {}",
                        si,
                        k,
                        body.join(", "),
                        g.resolve(sym.name)
                    ),
                );
            }
        }
        self.ln(0, "");
    }

    /// Root synthesized outputs in declaration order: `(attr, slot, name)`.
    fn outputs(&self) -> Vec<(u32, usize, String)> {
        let g = self.g();
        g.symbol(g.start())
            .attrs
            .iter()
            .filter(|&&a| g.attr(a).class == AttrClass::Synthesized)
            .map(|&a| (a.0, self.slot(a), g.resolve(g.attr(a).name).to_string()))
            .collect()
    }

    /// The per-pass visitor is a thin dispatcher; each production's body
    /// lives in its own function so stack frames on the recursion path
    /// stay proportional to one production, not the whole grammar.
    fn emit_visit(&mut self, k: u16) {
        let g = self.g();
        self.ln(0, &format!(
            "fn visit_p{}(sym: u32, state: &mut Vec<Option<Value>>, r: &mut AptReader, w: &mut AptWriter) -> Result<(), EvalError> {{",
            k
        ));
        self.ln(1, "let prec = match r.next()? {");
        self.ln(2, "Some(rec) => rec,");
        self.ln(
            2,
            "None => return Err(EvalError::Corrupt(\"APT file ended inside a visit\".to_string())),",
        );
        self.ln(1, "};");
        self.ln(1, "let p = match prec.body {");
        self.ln(2, "RecordBody::Prod(p) => p.0,");
        self.ln(
            2,
            "RecordBody::Sym(s) => return Err(EvalError::Corrupt(format!(\"expected a production record, found symbol {}\", s.0))),",
        );
        self.ln(1, "};");
        self.ln(1, "match p {");
        for pi in 0..g.productions().len() {
            self.ln(
                2,
                &format!(
                    "{}u32 => prod_p{}_{}(sym, prec.values, state, r, w),",
                    pi, k, pi
                ),
            );
        }
        self.ln(
            2,
            "p => Err(EvalError::Corrupt(format!(\"production {} does not exist\", p))),",
        );
        self.ln(1, "}");
        self.ln(0, "}");
        self.ln(0, "");
        for pi in 0..g.productions().len() {
            self.emit_prod_fn(k, ProdId(pi as u32));
        }
    }

    fn emit_prod_fn(&mut self, k: u16, p: ProdId) {
        let g = self.g();
        let prod = g.production(p);
        let lhs = prod.lhs;
        let rhs = prod.rhs.clone();
        let limb = prod.limb;
        let steps = self.analysis.plans.plan(k, p).steps.clone();
        self.ln(
            0,
            &format!(
                "// {} ::= {}",
                g.resolve(g.symbol(lhs).name),
                rhs.iter()
                    .map(|&s| g.resolve(g.symbol(s).name).to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        );
        self.ln(0, &format!(
            "fn prod_p{}_{}(sym: u32, values: Vec<(AttrId, Value)>, state: &mut Vec<Option<Value>>, r: &mut AptReader, w: &mut AptWriter) -> Result<(), EvalError> {{",
            k, p.0
        ));
        self.ln(1, &format!("if sym != {}u32 {{", lhs.0));
        self.ln(
            2,
            &format!(
                "return Err(EvalError::Corrupt(format!(\"production {} does not derive symbol {{}}\", sym)));",
                p.0
            ),
        );
        self.ln(1, "}");
        if let Some(ls) = limb {
            self.ln(
                1,
                &format!(
                    "let mut limb: Vec<Option<Value>> = vec![None; {}];",
                    self.nslots(ls)
                ),
            );
            self.ln(
                1,
                &format!("fill_slots(&mut limb, {}, values, ATTR_SLOT);", ls.0),
            );
        } else {
            self.ln(1, "let _ = values;");
        }
        for i in 0..rhs.len() {
            self.ln(
                1,
                &format!("let mut c{}: Option<Vec<Option<Value>>> = None;", i),
            );
        }
        let mut frame = Frame {
            pass: k,
            locals: Vec::new(),
            tmp: 0,
            body: String::new(),
            indent: 1,
        };
        for step in &steps {
            match *step {
                Step::Get(i) => self.emit_get(&mut frame, p, &rhs, i, k),
                Step::Eval(rid) => self.emit_eval(&mut frame, rid),
                Step::Visit(i) => self.emit_child_io(&mut frame, &rhs, i, k, true),
                Step::Put(i) => self.emit_child_io(&mut frame, &rhs, i, k, false),
            }
        }
        // End zone: move locals into the lhs/limb frames (rhs locals die).
        let locals = frame.locals.clone();
        for (occ, var) in &locals {
            match occ.pos {
                OccPos::Lhs => {
                    let line = format!("state[{}] = Some({});", self.slot(occ.attr), var);
                    frame.line(&line);
                }
                OccPos::Limb => {
                    let line = format!("limb[{}] = Some({});", self.slot(occ.attr), var);
                    frame.line(&line);
                }
                OccPos::Rhs(_) => {}
            }
        }
        // Production record for the next pass: limb values alive across k.
        let values = match limb {
            Some(ls) => format!("collect_alive(&limb, ALIVE_S{}_P{})", ls.0, k),
            None => "Vec::new()".to_string(),
        };
        frame.line(&format!(
            "w.write(&Record {{ body: RecordBody::Prod(ProdId({})), values: {} }})?;",
            p.0, values
        ));
        frame.line("Ok(())");
        self.out.push_str(&frame.body);
        self.ln(0, "}");
        self.ln(0, "");
    }

    fn emit_get(&mut self, frame: &mut Frame, p: ProdId, rhs: &[SymbolId], i: u16, k: u16) {
        let child = rhs[i as usize];
        // Elided terminal: no record exists at boundary k-1 — the
        // generated reader materializes the empty frame directly,
        // mirroring the interpreter.
        if self.analysis.lifetimes.elides(self.g(), child, k - 1) {
            frame.line(&format!(
                "c{} = Some(vec![None; {}]);",
                i,
                self.nslots(child)
            ));
            return;
        }
        frame.line("let crec = match r.next()? {");
        frame.indent += 1;
        frame.line("Some(rec) => rec,");
        frame.line(
            "None => return Err(EvalError::Corrupt(\"APT file ended before child record\".to_string())),",
        );
        frame.indent -= 1;
        frame.line("};");
        frame.line(&format!(
            "if crec.body != RecordBody::Sym(SymbolId({})) {{",
            child.0
        ));
        frame.indent += 1;
        frame.line(&format!(
            "return Err(EvalError::Corrupt(format!(\"child {} of production {}: expected symbol {}, found {{:?}}\", crec.body)));",
            i, p.0, child.0
        ));
        frame.indent -= 1;
        frame.line("}");
        frame.line(&format!(
            "let mut cs: Vec<Option<Value>> = vec![None; {}];",
            self.nslots(child)
        ));
        frame.line(&format!(
            "fill_slots(&mut cs, {}, crec.values, ATTR_SLOT);",
            child.0
        ));
        frame.line(&format!("c{} = Some(cs);", i));
    }

    /// `Visit(i)` (recurse) or `Put(i)` (write the child record): both
    /// first merge the locals defined so far for `rhs[i]` into the child
    /// frame, exactly like the interpreter's pre-visit/pre-put merge.
    fn emit_child_io(&mut self, frame: &mut Frame, rhs: &[SymbolId], i: u16, k: u16, visit: bool) {
        let child = rhs[i as usize];
        frame.line("{");
        frame.indent += 1;
        if visit {
            frame.line(&format!("let mut cs = match c{}.take() {{", i));
        } else {
            frame.line(&format!("let cs = match c{}.as_mut() {{", i));
        }
        frame.indent += 1;
        frame.line("Some(cs) => cs,");
        frame.line(&format!(
            "None => return Err(EvalError::Missing(\"child {} state\".to_string())),",
            i
        ));
        frame.indent -= 1;
        frame.line("};");
        let merges: Vec<(usize, String)> = frame
            .locals
            .iter()
            .filter(|(occ, _)| occ.pos == OccPos::Rhs(i))
            .map(|(occ, var)| (self.slot(occ.attr), var.clone()))
            .collect();
        for (slot, var) in merges {
            frame.line(&format!("cs[{}] = Some({}.clone());", slot, var));
        }
        if visit {
            frame.line(&format!("visit_p{}({}u32, &mut cs, r, w)?;", k, child.0));
            frame.line(&format!("c{} = Some(cs);", i));
        } else if self.analysis.lifetimes.elides(self.g(), child, k) {
            // Elided at boundary k: pass k+1 will not look for this
            // record, so don't write it.
            frame.line("let _ = cs;");
        } else {
            frame.line(&format!(
                "w.write(&Record {{ body: RecordBody::Sym(SymbolId({})), values: collect_alive(cs, ALIVE_S{}_P{}) }})?;",
                child.0, child.0, k
            ));
        }
        frame.indent -= 1;
        frame.line("}");
    }

    fn emit_eval(&mut self, frame: &mut Frame, rid: linguist_ag::ids::RuleId) {
        let rule = self.g().rule(rid).clone();
        let width = rule.targets.len();
        let multi_if = width > 1 && matches!(rule.expr, Expr::If { .. });
        if multi_if {
            if let Expr::If {
                branches,
                otherwise,
            } = &rule.expr
            {
                let tuple = frame.fresh_tuple(width);
                let label = frame.fresh_label();
                frame.line(&format!("let ({}) = {}: {{", tuple.join(", "), label));
                frame.indent += 1;
                for (cond, arm) in branches {
                    let c = self.compile_expr(frame, cond);
                    frame.line(&format!("match {} {{", c));
                    frame.indent += 1;
                    frame.line("Value::Bool(true) => {");
                    frame.indent += 1;
                    if arm.len() != width {
                        frame.line(&format!("return Err({});", ARM_WIDTH));
                    } else {
                        let mut vals = Vec::new();
                        for e in arm {
                            vals.push(self.compile_expr(frame, e));
                        }
                        frame.line(&format!("break {} ({});", label, vals.join(", ")));
                    }
                    frame.indent -= 1;
                    frame.line("}");
                    frame.line("Value::Bool(false) => {}");
                    frame.line(&format!("v => return Err({}),", IF_TYPE));
                    frame.indent -= 1;
                    frame.line("}");
                }
                if otherwise.len() != width {
                    frame.line(&format!("return Err({});", ARM_WIDTH));
                    frame.line("#[allow(unreachable_code)]");
                    let unit = (0..width)
                        .map(|_| "Value::Bool(false)".to_string())
                        .collect::<Vec<_>>();
                    frame.line(&format!("({})", unit.join(", ")));
                } else {
                    let mut vals = Vec::new();
                    for e in otherwise {
                        vals.push(self.compile_expr(frame, e));
                    }
                    frame.line(&format!("({})", vals.join(", ")));
                }
                frame.indent -= 1;
                frame.line("};");
                for (j, occ) in rule.targets.iter().enumerate() {
                    let var = local_var(occ);
                    frame.line(&format!("let {} = {};", var, tuple[j]));
                    frame.locals.push((*occ, var));
                }
            }
        } else {
            let v = self.compile_expr(frame, &rule.expr);
            if width == 1 {
                let occ = rule.targets[0];
                let var = local_var(&occ);
                frame.line(&format!("let {} = {};", var, v));
                frame.locals.push((occ, var));
            } else {
                // `vec![v; width]`: every target gets an equal clone.
                let t = frame.fresh();
                frame.line(&format!("let {} = {};", t, v));
                for occ in &rule.targets {
                    let var = local_var(occ);
                    frame.line(&format!("let {} = {}.clone();", var, t));
                    frame.locals.push((*occ, var));
                }
            }
        }
    }

    /// Compile one expression; returns a Rust expression string that must
    /// be consumed exactly once. Emits any needed statements first, in the
    /// interpreter's evaluation order.
    fn compile_expr(&mut self, frame: &mut Frame, e: &Expr) -> String {
        match e {
            Expr::Occ(occ) => self.resolve_occ(frame, occ),
            Expr::Int(i) => format!("Value::Int({}i64)", i),
            Expr::Bool(b) => format!("Value::Bool({})", b),
            Expr::Str(s) => format!("Value::str({:?})", s),
            Expr::Const(n) => format!("Value::Sym(Name::from_index({}))", n.index()),
            Expr::Call { func, args } => {
                let name = self.g().resolve(*func);
                let mut vals = Vec::new();
                for a in args {
                    vals.push(self.compile_expr(frame, a));
                }
                let t = frame.fresh();
                match builtin_index(name) {
                    Some(i) => frame.line(&format!(
                        "let {} = (BUILTINS[{}].1)(&[{}])?; // {}",
                        t,
                        i,
                        vals.join(", "),
                        BUILTINS[i].0
                    )),
                    // Not a standard function: the interpreter fails the
                    // call once its arguments are evaluated, and so does
                    // the compiled evaluator (the engine then falls back).
                    None => frame.line(&format!(
                        "let {}: Value = return Err(EvalError::Func(FuncError::Unknown {{ name: {:?}.to_string() }}));",
                        t, name
                    )),
                }
                t
            }
            Expr::Binop { op, lhs, rhs } => {
                let a = self.compile_expr(frame, lhs);
                let b = self.compile_expr(frame, rhs);
                let t = frame.fresh();
                frame.line(&format!(
                    "let {} = apply_binop(BinOp::{:?}, {}, {})?;",
                    t, op, a, b
                ));
                t
            }
            Expr::If {
                branches,
                otherwise,
            } => {
                // Single-value position: the selected arm must be one
                // expression (the interpreter's `eval_expr` errors
                // otherwise, after arm selection).
                let t = frame.fresh();
                let label = frame.fresh_label();
                frame.line(&format!("let {} = {}: {{", t, label));
                frame.indent += 1;
                for (cond, arm) in branches {
                    let c = self.compile_expr(frame, cond);
                    frame.line(&format!("match {} {{", c));
                    frame.indent += 1;
                    frame.line("Value::Bool(true) => {");
                    frame.indent += 1;
                    if arm.len() == 1 {
                        let v = self.compile_expr(frame, &arm[0]);
                        frame.line(&format!("break {} {};", label, v));
                    } else {
                        frame.line(&format!("return Err({});", MULTI_ARM));
                    }
                    frame.indent -= 1;
                    frame.line("}");
                    frame.line("Value::Bool(false) => {}");
                    frame.line(&format!("v => return Err({}),", IF_TYPE));
                    frame.indent -= 1;
                    frame.line("}");
                }
                if otherwise.len() == 1 {
                    let v = self.compile_expr(frame, &otherwise[0]);
                    frame.line(&v);
                } else {
                    frame.line(&format!("return Err({});", MULTI_ARM));
                }
                frame.indent -= 1;
                frame.line("};");
                t
            }
        }
    }

    /// Resolve an occurrence: locals first (most recent definition), then
    /// the slot frames — the interpreter's `resolve` order.
    fn resolve_occ(&mut self, frame: &mut Frame, occ: &AttrOcc) -> String {
        if let Some((_, var)) = frame.locals.iter().rev().find(|(o, _)| o == occ) {
            return format!("{}.clone()", var.clone());
        }
        let g = self.g();
        let name = g.resolve(g.attr(occ.attr).name).to_string();
        let missing = format!("{} at {} (pass {})", name, occ.pos, frame.pass);
        let slot = self.slot(occ.attr);
        let t = frame.fresh();
        let source = match occ.pos {
            OccPos::Lhs => format!("state[{}].as_ref()", slot),
            OccPos::Rhs(i) => format!("c{}.as_ref().and_then(|cs| cs[{}].as_ref())", i, slot),
            OccPos::Limb => format!("limb[{}].as_ref()", slot),
        };
        frame.line(&format!("let {} = match {} {{", t, source));
        frame.indent += 1;
        frame.line("Some(v) => v.clone(),");
        frame.line(&format!(
            "None => return Err(EvalError::Missing({:?}.to_string())),",
            missing
        ));
        frame.indent -= 1;
        frame.line("};");
        t
    }

    fn emit_run_pass(&mut self, k: u16) {
        let g = self.g();
        let start = g.start();
        let dir = if k == 1 && self.prefix() {
            "Forward"
        } else {
            "Backward"
        };
        self.ln(
            0,
            &format!(
                "fn run_pass_{}(input: Arc<Vec<u8>>) -> Result<(Vec<u8>, Vec<Option<Value>>), EvalError> {{",
                k
            ),
        );
        self.ln(
            1,
            &format!(
                "let mut r = AptReader::open_shared(input, ReadDir::{})?;",
                dir
            ),
        );
        self.ln(1, "let mut w = AptWriter::create_owned();");
        self.ln(1, "let rec = match r.next()? {");
        self.ln(2, "Some(rec) => rec,");
        self.ln(
            2,
            "None => return Err(EvalError::Corrupt(\"empty APT file\".to_string())),",
        );
        self.ln(1, "};");
        self.ln(1, "match rec.body {");
        self.ln(
            2,
            &format!("RecordBody::Sym(SymbolId({})) => {{}}", start.0),
        );
        self.ln(
            2,
            &format!(
                "RecordBody::Sym(s) => return Err(EvalError::Corrupt(format!(\"root record is {{}}, expected start symbol {}\", s.0))),",
                start.0
            ),
        );
        self.ln(
            2,
            "RecordBody::Prod(p) => return Err(EvalError::Corrupt(format!(\"expected a symbol record, found production {}\", p.0))),",
        );
        self.ln(1, "}");
        self.ln(
            1,
            &format!(
                "let mut state: Vec<Option<Value>> = vec![None; {}];",
                self.nslots(start)
            ),
        );
        self.ln(
            1,
            &format!(
                "fill_slots(&mut state, {}, rec.values, ATTR_SLOT);",
                start.0
            ),
        );
        self.ln(
            1,
            &format!("visit_p{}({}u32, &mut state, &mut r, &mut w)?;", k, start.0),
        );
        self.ln(1, &format!(
            "w.write(&Record {{ body: RecordBody::Sym(SymbolId({})), values: collect_alive(&state, ALIVE_S{}_P{}) }})?;",
            start.0, start.0, k
        ));
        self.ln(1, "let (_, buf) = w.finish_owned()?;");
        self.ln(1, "Ok((buf, state))");
        self.ln(0, "}");
        self.ln(0, "");
    }

    fn emit_evaluate(&mut self) {
        let n = self.num_passes();
        self.ln(
            0,
            "/// Run every pass over a boundary-0 APT file; returns the root's",
        );
        self.ln(0, "/// synthesized outputs in declaration order.");
        self.ln(
            0,
            "pub fn evaluate_apt(input: &[u8]) -> Result<Vec<(AttrId, Value)>, EvalError> {",
        );
        if n == 0 {
            self.ln(1, "let _ = input;");
            self.ln(
                1,
                "Err(EvalError::Corrupt(\"grammar evaluates in zero passes; nothing to do\".to_string()))",
            );
            self.ln(0, "}");
            self.ln(0, "");
            return;
        }
        self.ln(
            1,
            "let (buf1, root1) = run_pass_1(Arc::new(input.to_vec()))?;",
        );
        for k in 2..=n {
            self.ln(
                1,
                &format!(
                    "let (buf{}, root{}) = run_pass_{}(Arc::new(buf{}))?;",
                    k,
                    k,
                    k,
                    k - 1
                ),
            );
        }
        self.ln(1, &format!("let _ = buf{};", n));
        for k in 1..n {
            self.ln(1, &format!("let _ = root{};", k));
        }
        self.ln(1, &format!("let mut root = root{};", n));
        self.ln(1, "let mut out = Vec::with_capacity(OUTPUT_COUNT);");
        for (attr, slot, name) in self.outputs() {
            self.ln(1, &format!("match root[{}].take() {{", slot));
            self.ln(2, &format!("Some(v) => out.push((AttrId({}), v)),", attr));
            self.ln(
                2,
                &format!(
                    "None => return Err(EvalError::Missing({:?}.to_string())),",
                    format!("root output {}", name)
                ),
            );
            self.ln(1, "}");
        }
        self.ln(1, "Ok(out)");
        self.ln(0, "}");
        self.ln(0, "");
    }

    fn emit_main(&mut self) {
        self.ln(
            0,
            "/// Boundary-0 APT on stdin, encoded outputs on stdout; any",
        );
        self.ln(0, "/// evaluation error goes to stderr with exit code 1.");
        self.ln(0, "#[allow(dead_code)]");
        self.ln(0, "fn main() {");
        self.ln(1, "use std::io::Read as _;");
        self.ln(1, "use std::io::Write as _;");
        self.ln(1, "let mut input = Vec::new();");
        self.ln(1, "if std::io::stdin().read_to_end(&mut input).is_err() {");
        self.ln(2, "eprintln!(\"evaluator error: failed to read stdin\");");
        self.ln(2, "std::process::exit(2);");
        self.ln(1, "}");
        self.ln(1, "match evaluate_apt(&input) {");
        self.ln(2, "Ok(out) => {");
        self.ln(
            3,
            "let bytes = linguist_eval::compiled::encode_outputs(&out);",
        );
        self.ln(3, "if std::io::stdout().write_all(&bytes).is_err() {");
        self.ln(4, "std::process::exit(2);");
        self.ln(3, "}");
        self.ln(2, "}");
        self.ln(2, "Err(e) => {");
        self.ln(3, "eprintln!(\"evaluator error: {}\", e);");
        self.ln(3, "std::process::exit(1);");
        self.ln(2, "}");
        self.ln(1, "}");
        self.ln(0, "}");
    }
}

/// Generated error expressions shared by several emit sites.
const ARM_WIDTH: &str = "EvalError::Corrupt(\"arm width does not match target count\".to_string())";
const MULTI_ARM: &str =
    "EvalError::Corrupt(\"multi-expression arm outside a multi-target rule\".to_string())";
const IF_TYPE: &str = "EvalError::Func(FuncError::Type { name: \"if\".to_string(), expected: \"bool\", got: v.type_name() })";

/// Stable local-variable name for a defined occurrence.
fn local_var(occ: &AttrOcc) -> String {
    match occ.pos {
        OccPos::Lhs => format!("l_h_{}", occ.attr.0),
        OccPos::Rhs(i) => format!("l_r{}_{}", i, occ.attr.0),
        OccPos::Limb => format!("l_m_{}", occ.attr.0),
    }
}

/// Statement buffer for one production arm.
struct Frame {
    pass: u16,
    /// Locals in definition order (resolution searches newest-first).
    locals: Vec<(AttrOcc, String)>,
    tmp: u32,
    body: String,
    indent: usize,
}

impl Frame {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.body.push_str("    ");
        }
        self.body.push_str(s);
        self.body.push('\n');
    }

    fn fresh(&mut self) -> String {
        self.tmp += 1;
        format!("t{}", self.tmp)
    }

    fn fresh_label(&mut self) -> String {
        self.tmp += 1;
        format!("'b{}", self.tmp)
    }

    fn fresh_tuple(&mut self, width: usize) -> Vec<String> {
        (0..width).map(|_| self.fresh()).collect()
    }
}
