//! The CLI takes its defaults from the library.
//!
//! `linguist codegen` with no flags must emit exactly the evaluator
//! `rustgen` generates from the library's default analysis, so a default
//! that differs between the library and the CLI fails here. The test
//! builds the `linguist` binary with the cargo that runs it, into the
//! same target directory, since the root package has no binary of its
//! own.

use linguist86::grammars::{analyze, meta_source};
use linguist_codegen::rustgen;
use std::path::PathBuf;
use std::process::Command;

/// Build `linguist` in the profile this test binary was built in and
/// return its path.
fn linguist_exe() -> PathBuf {
    // <target>/<profile>/deps/<this test>
    let exe = std::env::current_exe().expect("test binary path");
    let profile_dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("test binary lives in <target>/<profile>/deps");
    let target_dir = profile_dir.parent().expect("profile dir has a parent");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut build = Command::new(cargo);
    build
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["build", "--offline", "-q", "-p", "linguist-serve", "--bin"])
        .arg("linguist")
        .arg("--target-dir")
        .arg(target_dir);
    if profile_dir.file_name().is_some_and(|p| p == "release") {
        build.arg("--release");
    }
    let status = build.status().expect("run cargo build");
    assert!(status.success(), "building the linguist binary failed");
    profile_dir.join("linguist")
}

#[test]
fn codegen_without_flags_emits_the_library_default_evaluator() {
    let grammar = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/grammars/lg/meta.lg");
    let out_dir =
        std::env::temp_dir().join(format!("linguist86-cli-defaults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(linguist_exe())
        .arg("codegen")
        .arg(&grammar)
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("run linguist codegen");
    assert!(
        out.status.success(),
        "codegen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let emitted = std::fs::read_to_string(out_dir.join("src/main.rs")).expect("emitted source");
    let _ = std::fs::remove_dir_all(&out_dir);
    let library = rustgen::rust_source(&analyze(meta_source()).expect("meta analyzes").analysis);
    assert!(
        emitted == library,
        "`linguist codegen` with no flags differs from the library's default analysis"
    );
}
