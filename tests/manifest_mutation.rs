//! Hostile checkpoint manifests under resume.
//!
//! A checkpoint directory outlives the process that wrote it, so its
//! `MANIFEST` may be damaged in any way a disk or a person can damage a
//! text file. Here a valid checkpoint of the block and meta translators
//! has its manifest mutated by seeded byte flips, truncations and line
//! deletions. For every mutant, `Evaluation::resume` must either fail
//! with a typed error or produce outputs byte-identical to a fresh run;
//! it must never panic and never return other outputs.

use linguist86::eval::compiled::encode_outputs;
use linguist86::eval::funcs::Funcs;
use linguist86::eval::machine::{evaluate, evaluate_resumable, EvalOptions, Evaluation};
use linguist86::eval::manifest::MANIFEST_FILE;
use linguist86::frontend::differential::strategy_for;
use linguist86::frontend::translate::standard_intrinsics;
use linguist86::frontend::Translator;
use linguist86::grammars::{
    analyze, block_program, block_scanner, block_source, calc_source, meta_scanner, meta_source,
};
use linguist86::lexgen::Scanner;
use linguist86::support::intern::NameTable;
use std::path::{Path, PathBuf};

/// Mutants per grammar, cycling through the three kinds of damage.
const MUTANTS: u64 = 150;

/// A small xorshift generator: the same mutants on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Damage `manifest` in the way mutant `i` of `rng` picks.
fn mutate(manifest: &[u8], i: u64, rng: &mut Rng) -> Vec<u8> {
    let mut m = manifest.to_vec();
    match i % 3 {
        0 => {
            // One to three byte flips.
            for _ in 0..=rng.below(3) {
                let at = rng.below(m.len());
                m[at] ^= 1 + rng.below(255) as u8;
            }
        }
        1 => m.truncate(rng.below(m.len())),
        _ => {
            let text = String::from_utf8(m).expect("a manifest is text");
            let mut lines: Vec<&str> = text.lines().collect();
            lines.remove(rng.below(lines.len()));
            m = lines.join("\n").into_bytes();
            m.push(b'\n');
        }
    }
    m
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to).expect("create checkpoint copy");
    for entry in std::fs::read_dir(from).expect("read checkpoint") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy checkpoint file");
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "linguist86-manifest-mutation-{}-{}",
        std::process::id(),
        name
    ))
}

fn resume_survives_mutated_manifests(name: &str, source: &str, scanner: Scanner, input: &str) {
    let analysis = analyze(source).expect("bundled grammar analyzes").analysis;
    let t = Translator::new(analysis, scanner).expect("translator builds");
    let tree = t
        .parse_input(input, &standard_intrinsics, &mut NameTable::new())
        .expect("input parses");
    let funcs = Funcs::standard();
    let opts = EvalOptions {
        strategy: strategy_for(&t.analysis),
        ..EvalOptions::default()
    };
    let fresh = encode_outputs(&evaluate(&t.analysis, &funcs, &tree, &opts).unwrap().outputs);

    let pristine = scratch(&format!("{}-pristine", name));
    std::fs::remove_dir_all(&pristine).ok();
    evaluate_resumable(&t.analysis, &funcs, &tree, &opts, &pristine).expect("checkpointed run");
    let manifest = std::fs::read(pristine.join(MANIFEST_FILE)).expect("manifest written");

    let work = scratch(&format!("{}-work", name));
    let mut rng = Rng(0x5EED_0000_0000_0001 ^ name.len() as u64);
    let (mut resumed, mut refused) = (0, 0);
    for i in 0..MUTANTS {
        let mutant = mutate(&manifest, i, &mut rng);
        copy_dir(&pristine, &work);
        std::fs::write(work.join(MANIFEST_FILE), &mutant).expect("write mutant");
        match Evaluation::resume(&t.analysis, &funcs, &opts, &work) {
            Ok(eval) => {
                assert_eq!(
                    encode_outputs(&eval.outputs),
                    fresh,
                    "{}: mutant {} resumed to other outputs; manifest:\n{}",
                    name,
                    i,
                    String::from_utf8_lossy(&mutant)
                );
                resumed += 1;
            }
            Err(e) => {
                assert!(!e.to_string().is_empty(), "{}: mutant {}", name, i);
                refused += 1;
            }
        }
    }
    std::fs::remove_dir_all(&pristine).ok();
    std::fs::remove_dir_all(&work).ok();
    // Both outcomes occur: damage to one entry walks back to an earlier
    // boundary, damage to the header lines is refused.
    assert!(
        resumed > 0 && refused > 0,
        "{}: {} resumed, {} refused",
        name,
        resumed,
        refused
    );
}

#[test]
fn block_resume_survives_mutated_manifests() {
    resume_survives_mutated_manifests(
        "block",
        block_source(),
        block_scanner(),
        &block_program(12, 3),
    );
}

#[test]
fn meta_resume_survives_mutated_manifests() {
    resume_survives_mutated_manifests("meta", meta_source(), meta_scanner(), calc_source());
}
