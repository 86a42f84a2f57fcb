//! Regenerate the checked-in AOT evaluator crates.
//!
//! The engine's ahead-of-time path links the five bundled grammars'
//! generated evaluators as ordinary workspace members under
//! `crates/engine/generated/<name>_opt`, each generated from the default
//! analysis — the grammar optimizer on, as in the library and the CLI.
//! A paper-faithful `--opt=off` analysis has no crate of its own: it
//! misses the registry and runs on the interpreter. The sources are
//! ordinary checked-in files; rerun this after changing `rustgen`, the
//! optimizer, or a bundled grammar:
//!
//! ```text
//! cargo run --example gen_aot
//! ```
//!
//! A freshness test in `tests/` compares the checked-in sources against
//! what `rustgen` produces today, so drift fails CI rather than silently
//! desynchronizing the AOT registry (the engine also hash-checks at
//! runtime and falls back to the interpreter on any mismatch).

use linguist_codegen::rustgen;
use std::fs;
use std::path::Path;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/engine/generated");
    let grammars = [
        ("calc", linguist_grammars::calc_source()),
        ("knuth", linguist_grammars::knuth_source()),
        ("block", linguist_grammars::block_source()),
        ("meta", linguist_grammars::meta_source()),
        ("pascal", linguist_grammars::pascal_source()),
    ];
    for (name, source) in grammars {
        let out = linguist_grammars::analyze(source)
            .unwrap_or_else(|e| panic!("{} failed to analyze: {:?}", name, e));
        let dir_name = format!("{}_opt", name);
        let crate_name = format!("linguist-aot-{}-opt", name);
        let files = rustgen::crate_files(&out.analysis, &crate_name, false);
        let dir = root.join(&dir_name);
        for (rel, contents) in &files {
            let path = dir.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, contents).unwrap();
        }
        let src = &files
            .iter()
            .find(|(rel, _)| rel.ends_with("lib.rs"))
            .unwrap()
            .1;
        println!(
            "{}: {} lines, hash {}",
            dir_name,
            src.lines().count(),
            rustgen::content_hash(src.as_bytes())
        );
    }
}
