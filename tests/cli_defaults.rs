//! The CLI takes its defaults from the library, and its `--profile=json`
//! report keeps its shape.
//!
//! `linguist codegen` with no flags must emit exactly the evaluator
//! `rustgen` generates from the library's default analysis, so a default
//! that differs between the library and the CLI fails here. The profile
//! tests pin the keys of the report's `eval` record, the conservation
//! laws between its pass rows, and `"eval":null` under `--engine aot`.
//! The tests build the `linguist` binary with the cargo that runs them,
//! into the same target directory, since the root package has no binary
//! of its own.

use linguist86::grammars::{analyze, meta_source};
use linguist_codegen::rustgen;
use linguist_support::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

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
    let out = Command::new(shared_exe())
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

/// The bundled grammars, by file stem under `crates/grammars/lg`.
const BUNDLED: [&str; 5] = ["calc", "knuth_binary", "block", "meta", "pascal"];

/// The keys of a `--profile=json` report's `eval` object, in order.
const EVAL_KEYS: [&str; 6] = [
    "initial_records",
    "initial_bytes",
    "total_io_bytes",
    "total_attrs_evaluated",
    "total_funcs_invoked",
    "passes",
];

/// The keys of each row of `eval.passes`, in order.
const PASS_KEYS: [&str; 11] = [
    "pass",
    "direction",
    "input_boundary",
    "output_boundary",
    "records_read",
    "bytes_read",
    "records_written",
    "bytes_written",
    "attrs_evaluated",
    "funcs_invoked",
    "rules_evaluated",
];

/// The `linguist` binary, built once for all the tests in this file.
fn shared_exe() -> &'static Path {
    static EXE: OnceLock<PathBuf> = OnceLock::new();
    EXE.get_or_init(linguist_exe)
}

/// `linguist <grammar>.lg --profile=json [extra…]`, parsed.
fn profile_json(grammar: &str, extra: &[&str]) -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/grammars/lg")
        .join(format!("{}.lg", grammar));
    let out = Command::new(shared_exe())
        .arg(&path)
        .arg("--profile=json")
        .args(extra)
        .output()
        .expect("run linguist --profile=json");
    assert!(
        out.status.success(),
        "{}: {}",
        grammar,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    Json::parse(text.trim()).unwrap_or_else(|e| panic!("{}: not JSON ({:?}): {}", grammar, e, text))
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {}", other),
    }
}

fn count(obj: &Json, key: &str) -> u64 {
    obj.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no count {} in {}", key, obj))
}

#[test]
fn profile_json_pins_the_eval_record_and_its_conservation_laws() {
    for g in BUNDLED {
        let report = profile_json(g, &[]);
        assert_eq!(
            report.get("engine").and_then(Json::as_str),
            Some("interpreted")
        );
        let eval = report.get("eval").expect("eval key");
        // The tree the record describes: knuth_binary's is shrunk until
        // `Pow2` accepts its numeral.
        assert!(count(&report, "tree_nodes") > 0, "{}: {}", g, report);
        assert_eq!(keys(eval), EVAL_KEYS, "{}: eval keys", g);
        let passes = eval
            .get("passes")
            .and_then(Json::as_arr)
            .expect("pass rows");
        assert!(!passes.is_empty(), "{}: no pass rows", g);
        let (mut read, mut written) =
            (count(eval, "initial_records"), count(eval, "initial_bytes"));
        let mut io = written;
        for (i, row) in passes.iter().enumerate() {
            let k = i as u64 + 1;
            assert_eq!(keys(row), PASS_KEYS, "{}: pass {} keys", g, k);
            assert_eq!(count(row, "pass"), k);
            assert_eq!(count(row, "input_boundary"), k - 1);
            assert_eq!(count(row, "output_boundary"), k);
            // Pass 1 reads exactly boundary 0; pass k+1 reads exactly
            // what pass k wrote.
            assert_eq!(
                (count(row, "records_read"), count(row, "bytes_read")),
                (read, written),
                "{}: pass {} input",
                g,
                k
            );
            read = count(row, "records_written");
            written = count(row, "bytes_written");
            io += count(row, "bytes_read") + written;
        }
        // `total_io_bytes` counts boundary 0 and every pass's reads and
        // writes.
        assert_eq!(count(eval, "total_io_bytes"), io, "{}: total_io_bytes", g);
    }
}

#[test]
fn profile_json_under_aot_reports_no_eval_record() {
    for g in BUNDLED {
        let report = profile_json(g, &["--engine", "aot"]);
        assert!(
            report.get("eval").is_some_and(Json::is_null),
            "{}: {}",
            g,
            report
        );
        let engine = report.get("engine").and_then(Json::as_str);
        assert_eq!(engine, Some("aot"), "{}: {}", g, report);
        assert!(
            report.get("eval_error").is_some_and(Json::is_null),
            "{}: {}",
            g,
            report
        );
    }
}
