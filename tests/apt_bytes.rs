//! The APT files and the memory meter, pinned.
//!
//! Each bundled grammar translates one fixed input with every pass
//! boundary checkpointed. The checkpoint manifest records each boundary
//! file's record count, framed byte count and whole-body CRC-32, so equal
//! manifest entries mean byte-identical boundary files. The meter's peak
//! is the most stacked record bytes at once, charged at each record's
//! framed size. A change to how records are framed, encoded, read or
//! charged must leave every constant here as it is.

use linguist86::eval::funcs::Funcs;
use linguist86::eval::machine::{evaluate_resumable, EvalOptions};
use linguist86::eval::manifest::Manifest;
use linguist86::frontend::differential::strategy_for;
use linguist86::frontend::translate::standard_intrinsics;
use linguist86::frontend::Translator;
use linguist86::grammars::{
    analyze, block_program, block_scanner, block_source, calc_scanner, calc_source, knuth_scanner,
    knuth_source, meta_scanner, meta_source, pascal_program, pascal_scanner, pascal_source,
};
use linguist86::lexgen::Scanner;
use linguist86::support::intern::NameTable;
use std::path::PathBuf;

/// `(boundary, records, bytes, crc)` per manifest entry, then the meter
/// peak.
type Pin = (&'static [(u16, u64, u64, u32)], usize);

/// Translate `input` with a checkpoint of every boundary and return what
/// [`Pin`] pins.
fn observe(
    name: &str,
    source: &str,
    scanner: Scanner,
    input: &str,
) -> (Vec<(u16, u64, u64, u32)>, usize) {
    let analysis = analyze(source).expect("bundled grammar analyzes").analysis;
    let t = Translator::new(analysis, scanner).expect("translator builds");
    let tree = t
        .parse_input(input, &standard_intrinsics, &mut NameTable::new())
        .expect("input parses");
    let opts = EvalOptions {
        strategy: strategy_for(&t.analysis),
        ..EvalOptions::default()
    };
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "linguist86-apt-bytes-{}-{}",
        std::process::id(),
        name
    ));
    std::fs::remove_dir_all(&dir).ok();
    let eval = evaluate_resumable(&t.analysis, &Funcs::standard(), &tree, &opts, &dir)
        .unwrap_or_else(|e| panic!("{}: {}", name, e));
    let manifest = Manifest::load(&dir).expect("manifest");
    std::fs::remove_dir_all(&dir).ok();
    let entries = manifest
        .entries
        .iter()
        .map(|e| (e.pass, e.records, e.bytes, e.crc))
        .collect();
    (entries, eval.stats.meter.peak())
}

fn check(name: &str, source: &str, scanner: Scanner, input: &str, (entries, peak): Pin) {
    let (got, got_peak) = observe(name, source, scanner, input);
    let shown: Vec<String> = got
        .iter()
        .map(|(k, r, b, c)| format!("({}, {}, {}, 0x{:08x})", k, r, b, c))
        .collect();
    assert_eq!(
        (got.as_slice(), got_peak),
        (entries, peak),
        "{}: boundary files or meter peak changed; observed ([{}], {})",
        name,
        shown.join(", "),
        got_peak
    );
}

#[test]
fn calc_boundaries_and_peak_are_pinned() {
    check(
        "calc",
        calc_source(),
        calc_scanner(),
        "1 + 2 * (3 + 4) - 5 * (6 - 7 + 8)",
        (&[(0, 64, 1320, 0x55edd22b), (1, 56, 1168, 0x08a86764)], 374),
    );
}

#[test]
fn knuth_boundaries_and_peak_are_pinned() {
    check(
        "knuth",
        knuth_source(),
        knuth_scanner(),
        "1 1 0 1 . 0 1",
        (&[(0, 26, 494, 0xa236e986), (1, 26, 507, 0xb83c1eb5)], 304),
    );
}

#[test]
fn block_boundaries_and_peak_are_pinned() {
    check(
        "block",
        block_source(),
        block_scanner(),
        &block_program(12, 3),
        (
            &[
                (0, 374, 8690, 0x69f88a4e),
                (1, 374, 8703, 0xcd50fe35),
                (2, 302, 5760, 0x32be040b),
            ],
            1694,
        ),
    );
}

#[test]
fn pascal_boundaries_and_peak_are_pinned() {
    check(
        "pascal",
        pascal_source(),
        pascal_scanner(),
        &pascal_program(12, 16),
        (
            &[
                (0, 459, 10063, 0x298b868c),
                (1, 459, 10197, 0x82973b76),
                (2, 398, 7597, 0xef1058b2),
            ],
            1219,
        ),
    );
}

#[test]
fn meta_boundaries_and_peak_are_pinned() {
    check(
        "meta",
        meta_source(),
        meta_scanner(),
        calc_source(),
        (
            &[
                (0, 438, 9296, 0x4fa8d3ae),
                (1, 438, 9794, 0xad573d72),
                (2, 438, 9629, 0xc8a1ec93),
                (3, 438, 9597, 0xe3a2acf4),
                (4, 362, 6939, 0xd134ed5f),
            ],
            1279,
        ),
    );
}
