//! Bundled attribute grammars and synthetic workloads.
//!
//! The evaluation section of the paper runs LINGUIST-86 over two real
//! attribute grammars: its own 1800-line grammar and a Pascal grammar.
//! This crate bundles our counterparts plus smaller teaching grammars,
//! each as LINGUIST source text together with a matching scanner
//! definition (token kinds named after the grammar's terminals, so
//! [`linguist_frontend::Translator`] can bind them):
//!
//! * [`meta_source`] — the LINGUIST input language described as an
//!   attribute grammar *in its own notation* (the self-application
//!   workload; 4 alternating passes; lints `.lg` files for duplicate,
//!   undeclared and unused symbols).
//! * [`pascal_source`] — a Pascal subset with symbol tables, type
//!   checking and code-size accounting (computation-heavy; 2 passes).
//! * [`calc_source`] — a desk calculator (one pass, synthesized only).
//! * [`knuth_source`] — Knuth's binary-number grammar (inherited SCALE).
//! * [`block_source`] — a scope-checked block language (2 passes).
//! * [`synth`] — a parametric family of grammars with controlled
//!   copy-rule density for the subsumption ablation (E13).

pub mod synth;

use linguist_frontend::driver::{run, DriverOptions, DriverOutput};
use linguist_lexgen::{Scanner, ScannerDef};

/// The LINGUIST meta attribute grammar (self-application workload).
pub fn meta_source() -> &'static str {
    include_str!("../lg/meta.lg")
}

/// The Pascal-subset attribute grammar.
pub fn pascal_source() -> &'static str {
    include_str!("../lg/pascal.lg")
}

/// The desk-calculator attribute grammar.
pub fn calc_source() -> &'static str {
    include_str!("../lg/calc.lg")
}

/// Knuth's binary-number attribute grammar.
pub fn knuth_source() -> &'static str {
    include_str!("../lg/knuth_binary.lg")
}

/// The scope-checked block-language attribute grammar.
pub fn block_source() -> &'static str {
    include_str!("../lg/block.lg")
}

/// Scanner for the calculator's concrete syntax.
pub fn calc_scanner() -> Scanner {
    ScannerDef::new()
        .skip(r"[ \t\r\n]+")
        .token("NUMBER", "[0-9]+")
        .token("PLUS", r"\+")
        .token("MINUS", "-")
        .token("STAR", r"\*")
        .token("LPAREN", r"\(")
        .token("RPAREN", r"\)")
        .build()
        .expect("calc scanner is well-formed")
}

/// Scanner for binary numerals.
pub fn knuth_scanner() -> Scanner {
    ScannerDef::new()
        .skip(r"[ \t\r\n]+")
        .token("ZERO", "0")
        .token("ONE", "1")
        .token("POINT", r"\.")
        .build()
        .expect("knuth scanner is well-formed")
}

/// Scanner for the block language.
pub fn block_scanner() -> Scanner {
    ScannerDef::new()
        .skip(r"[ \t\r\n]+")
        .skip(r"#[^\n]*")
        .token("VAR", "var")
        .token("USE", "use")
        .token("IDENT", "[a-zA-Z_][a-zA-Z0-9_]*")
        .token("LBRACE", r"\{")
        .token("RBRACE", r"\}")
        .token("SEMI", ";")
        .build()
        .expect("block scanner is well-formed")
}

/// Scanner for the Pascal subset.
pub fn pascal_scanner() -> Scanner {
    ScannerDef::new()
        .skip(r"[ \t\r\n]+")
        .skip(r"\{[^}]*\}")
        .token("PROGRAM", "program")
        .token("VAR", "var")
        .token("BEGIN", "begin")
        .token("ENDKW", "end")
        .token("IF", "if")
        .token("THEN", "then")
        .token("ELSE", "else")
        .token("WHILE", "while")
        .token("DO", "do")
        .token("INTKW", "integer")
        .token("BOOLKW", "boolean")
        .token("NOTKW", "not")
        .token("TRUEKW", "true")
        .token("FALSEKW", "false")
        .token("IDENT", "[a-zA-Z_][a-zA-Z0-9_]*")
        .token("NUMBER", "[0-9]+")
        .token("ASSIGN", ":=")
        .token("SEMI", ";")
        .token("COLON", ":")
        .token("DOT", r"\.")
        .token("PLUS", r"\+")
        .token("MINUS", "-")
        .token("STAR", r"\*")
        .token("LESS", "<")
        .token("EQUALS", "=")
        .token("LPAREN", r"\(")
        .token("RPAREN", r"\)")
        .build()
        .expect("pascal scanner is well-formed")
}

/// Scanner for the LINGUIST input language itself (the meta grammar's
/// concrete syntax) — the same token definitions the front end's own
/// generated scanner uses.
pub fn meta_scanner() -> Scanner {
    ScannerDef::new()
        .skip(r"[ \t\r\n]+")
        .skip(r"#[^\n]*")
        .token("KW_GRAMMAR", "grammar")
        .token("KW_TERMINALS", "terminals")
        .token("KW_NONTERMINALS", "nonterminals")
        .token("KW_LIMBS", "limbs")
        .token("KW_START", "start")
        .token("KW_PRODUCTIONS", "productions")
        .token("KW_PROD", "prod")
        .token("KW_END", "end")
        .token("KW_IF", "if")
        .token("KW_THEN", "then")
        .token("KW_ELSIF", "elsif")
        .token("KW_ELSE", "else")
        .token("KW_ENDIF", "endif")
        .token("KW_TRUE", "true")
        .token("KW_FALSE", "false")
        .token("KW_AND", "AND")
        .token("KW_OR", "OR")
        .token("KW_SYN", "syn")
        .token("KW_INH", "inh")
        .token("KW_INTRINSIC", "intrinsic")
        .token("KW_LOCAL", "local")
        .token("IDENT", "[a-zA-Z_][a-zA-Z0-9_$]*")
        .token("INT", "[0-9]+")
        .token("STRING", "'[^'\n]*'")
        .token("ARROW", "->")
        .token("NE", "<>")
        .token("EQ", "=")
        .token("COMMA", ",")
        .token("SEMI", ";")
        .token("COLON", ":")
        .token("DOT", r"\.")
        .token("LP", r"\(")
        .token("RP", r"\)")
        .token("PLUS", r"\+")
        .token("MINUS", "-")
        .token("LT", "<")
        .token("GT", ">")
        .token("AMP", "&")
        .build()
        .expect("meta scanner is well-formed")
}

/// Run the overlay driver on a bundled source with default options —
/// the grammar optimizer on, exactly as the CLI runs it and as the
/// `*_opt` AOT evaluator crates are generated.
///
/// # Errors
///
/// Propagates the driver's error (none of the bundled grammars should
/// fail).
pub fn analyze(source: &str) -> Result<DriverOutput, linguist_frontend::DriverError> {
    run(source, &DriverOptions::default())
}

/// Generate a Pascal-subset program with `vars` declarations and
/// `stmts` statements (used by throughput and memory sweeps).
pub fn pascal_program(vars: usize, stmts: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("program bench;\n");
    for i in 0..vars {
        let _ = writeln!(out, "var v{} : integer;", i);
    }
    out.push_str("begin\n");
    for i in 0..stmts {
        if i > 0 {
            out.push_str(";\n");
        }
        let _ = write!(
            out,
            "  v{} := v{} + {} * v{}",
            i % vars.max(1),
            (i + 1) % vars.max(1),
            i % 97,
            (i + 2) % vars.max(1)
        );
    }
    out.push_str("\nend.\n");
    out
}

/// Generate a block-language program with nested scopes.
pub fn block_program(decls: usize, depth: usize) -> String {
    let mut out = String::new();
    for d in 0..depth {
        out.push_str(&"  ".repeat(d));
        out.push_str("{\n");
        for i in 0..decls {
            out.push_str(&"  ".repeat(d + 1));
            out.push_str(&format!("var x{}_{} ;\n", d, i));
        }
        for i in 0..decls {
            out.push_str(&"  ".repeat(d + 1));
            out.push_str(&format!("use x{}_{} ;\n", d, i));
        }
    }
    for d in (0..depth).rev() {
        out.push_str(&"  ".repeat(d));
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use linguist_frontend::Translator;

    #[test]
    fn all_bundled_grammars_analyze() {
        for (name, src) in [
            ("calc", calc_source()),
            ("knuth", knuth_source()),
            ("block", block_source()),
            ("pascal", pascal_source()),
            ("meta", meta_source()),
        ] {
            let out = analyze(src).unwrap_or_else(|e| panic!("{}: {}", name, e));
            assert!(out.stats.productions > 0, "{}", name);
        }
    }

    #[test]
    fn pass_structure_matches_design() {
        assert_eq!(analyze(calc_source()).unwrap().stats.passes, 1, "calc");
        assert_eq!(analyze(knuth_source()).unwrap().stats.passes, 1, "knuth");
        assert_eq!(analyze(block_source()).unwrap().stats.passes, 2, "block");
        assert_eq!(analyze(pascal_source()).unwrap().stats.passes, 2, "pascal");
        assert_eq!(
            analyze(meta_source()).unwrap().stats.passes,
            4,
            "the meta grammar needs 4 alternating passes, like the paper's"
        );
    }

    #[test]
    fn translators_build_for_all_bundled_grammars() {
        for (name, src, scanner) in [
            ("calc", calc_source(), calc_scanner()),
            ("knuth", knuth_source(), knuth_scanner()),
            ("block", block_source(), block_scanner()),
            ("pascal", pascal_source(), pascal_scanner()),
            ("meta", meta_source(), meta_scanner()),
        ] {
            let out = analyze(src).unwrap_or_else(|e| panic!("{}: {}", name, e));
            Translator::new(out.analysis, scanner).unwrap_or_else(|e| panic!("{}: {}", name, e));
        }
    }

    #[test]
    fn meta_grammar_has_papers_profile_shape() {
        // E7: not the paper's absolute numbers (its grammar is bigger),
        // but the same shape: half the semantic functions are copy-rules
        // and most copies are implicit — on the paper-faithful grammar,
        // before the optimizer collapses any copy chains.
        let faithful = DriverOptions {
            config: linguist_ag::analysis::Config {
                optimize: false,
                ..Default::default()
            },
            ..DriverOptions::default()
        };
        let out = run(meta_source(), &faithful).unwrap();
        let s = out.stats;
        assert!(s.symbols > 60, "symbols = {}", s.symbols);
        assert!(s.productions > 50, "productions = {}", s.productions);
        assert!(
            s.semantic_functions > 150,
            "rules = {}",
            s.semantic_functions
        );
        assert!(
            s.copy_fraction() > 0.35 && s.copy_fraction() < 0.75,
            "copy fraction = {:.2}",
            s.copy_fraction()
        );
        assert!(
            s.implicit_copy_rules * 2 > s.copy_rules,
            "most copies implicit: {} of {}",
            s.implicit_copy_rules,
            s.copy_rules
        );
    }

    #[test]
    fn generated_programs_are_wellformed() {
        let p = pascal_program(5, 10);
        assert!(p.contains("program"));
        assert!(p.ends_with("end.\n"));
        let b = block_program(2, 3);
        assert_eq!(b.matches('{').count(), b.matches('}').count());
    }
}
