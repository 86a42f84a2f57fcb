//! Seeded input generation. The same seed always gives the same inputs,
//! and the program under test only ever sees the generated text.
//!
//! Sizes follow fixed ladders across each range, and the seed varies
//! content (and sizes only slightly), so percentiles move with the
//! program, not with the draw.

use linguist_grammars as lg;
use linguist_grammars::synth::{generate, SynthParams};
use linguist_lexgen::Scanner;

/// The five bundled grammars.
pub const BUNDLED: [&str; 5] = ["calc", "knuth", "block", "pascal", "meta"];

/// Source text and scanner of a bundled grammar.
pub fn bundled(name: &str) -> (&'static str, Scanner) {
    match name {
        "calc" => (lg::calc_source(), lg::calc_scanner()),
        "knuth" => (lg::knuth_source(), lg::knuth_scanner()),
        "block" => (lg::block_source(), lg::block_scanner()),
        "pascal" => (lg::pascal_source(), lg::pascal_scanner()),
        _ => (lg::meta_source(), lg::meta_scanner()),
    }
}

/// SplitMix64: small, fast and good enough for input generation.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a run's seed.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = linguist_support::fnv::hash(stream.as_bytes());
        h ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Step `i` of an `n`-step ladder from `lo` to `hi` inclusive.
pub fn ladder(i: usize, n: usize, lo: usize, hi: usize) -> usize {
    lo + i * (hi - lo) / (n - 1).max(1)
}

/// A desk-calculator expression of `terms` terms; every value stays far
/// inside `i64`.
pub fn calc_expr(rng: &mut Rng, terms: usize) -> String {
    let mut out = String::new();
    for t in 0..terms {
        if t > 0 {
            out.push_str(if rng.range(0, 1) == 0 { " + " } else { " - " });
        }
        for f in 0..rng.range(1, 3) {
            if f > 0 {
                out.push_str(" * ");
            }
            if rng.range(0, 4) == 0 {
                out.push_str(&format!("({} - {})", rng.range(0, 99), rng.range(0, 99)));
            } else {
                out.push_str(&rng.range(0, 99).to_string());
            }
        }
        if t % 8 == 7 {
            out.push('\n');
        }
    }
    out
}

/// A Pascal program shaped like `linguist_grammars::pascal_program`:
/// `vars` declarations and `stmts` statements `vA := vB + k * vC`. The
/// seed picks the variables and constants; the sizes alone set the cost,
/// so an input costs the same under every seed.
pub fn pascal_program(rng: &mut Rng, vars: usize, stmts: usize) -> String {
    use std::fmt::Write as _;
    let vars = vars.max(1);
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
            rng.range(0, vars - 1),
            rng.range(0, vars - 1),
            rng.range(0, 96),
            rng.range(0, vars - 1)
        );
    }
    out.push_str("\nend.\n");
    out
}

/// A binary numeral for Knuth's grammar, with an optional fraction.
pub fn knuth_numeral(rng: &mut Rng, int_bits: usize, frac_bits: usize) -> String {
    let mut out = String::from("1");
    for _ in 1..int_bits {
        out.push(if rng.range(0, 1) == 0 { '0' } else { '1' });
    }
    if frac_bits > 0 {
        out.push('.');
        for _ in 0..frac_bits {
            out.push(if rng.range(0, 1) == 0 { '0' } else { '1' });
        }
    }
    out
}

/// LINGUIST source of a seeded list grammar from
/// `linguist_grammars::synth::generate`: `inherited` context attributes
/// over `productions` recursive productions.
pub fn synth_source(rng: &mut Rng, inherited: usize, productions: usize) -> String {
    let sg = generate(&SynthParams {
        inherited_attrs: inherited,
        list_productions: productions,
        copy_density: 0.5,
        seed: rng.next_u64(),
    });
    linguist_frontend::print_grammar(&sg.grammar, "Synth")
}
