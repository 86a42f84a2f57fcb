//! CLI behavior pinned at the process boundary: exit codes for failed
//! batches, and the `serve`/`client` subcommands end to end.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn linguist() -> Command {
    Command::new(env!("CARGO_BIN_EXE_linguist"))
}

fn write_tmp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("linguist-cli-{}-{}", std::process::id(), name));
    std::fs::write(&path, contents).expect("write fixture");
    path
}

/// Analyzes cleanly, but the start symbol has no finite derivation, so
/// the profiled evaluation (synthetic tree) fails for it.
const BOTTOMLESS: &str = "\
grammar Loop ;
terminals  x : intrinsic OBJ int ;
nonterminals  s : syn V int ;
start s ;
productions
prod s0 = s1 x :
  s0.V = s1.V + x.OBJ ;
end
end
";

const GOOD: &str = "\
grammar Tiny ;
terminals  x : intrinsic OBJ int ;
nonterminals  s : syn V int ;
start s ;
productions
prod s0 = s1 x :
  s0.V = s1.V + x.OBJ ;
end
prod s0 = x :
  s0.V = x.OBJ ;
end
end
";

#[test]
fn batch_profile_json_where_every_job_fails_exits_nonzero() {
    let a = write_tmp("allfail-a.lg", BOTTOMLESS);
    let b = write_tmp("allfail-b.lg", BOTTOMLESS);
    let out = linguist()
        .args(["--batch", "--profile=json"])
        .arg(&a)
        .arg(&b)
        .output()
        .expect("run linguist");
    // Every job's profile carries an eval_error; the sweep produced
    // nothing usable and must not exit 0.
    assert!(
        !out.status.success(),
        "fully failed batch exited 0; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("eval_error"),
        "reports should still be printed: {}",
        stdout
    );
}

#[test]
fn batch_profile_json_with_one_surviving_job_exits_zero() {
    let good = write_tmp("mixed-good.lg", GOOD);
    let bad = write_tmp("mixed-bad.lg", BOTTOMLESS);
    let out = linguist()
        .args(["--batch", "--profile=json"])
        .arg(&good)
        .arg(&bad)
        .output()
        .expect("run linguist");
    assert!(
        out.status.success(),
        "partially failed batch should exit 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn batch_with_a_driver_error_still_exits_nonzero() {
    let good = write_tmp("drv-good.lg", GOOD);
    let broken = write_tmp("drv-broken.lg", "grammar Broken");
    let out = linguist()
        .arg("--batch")
        .arg(&good)
        .arg(&broken)
        .output()
        .expect("run linguist");
    assert!(!out.status.success());
}

/// Checks clean apart from one AG001 warning: `t.DEAD` is computed
/// from real data but never consumed.
const WARNY: &str = "\
grammar Warny ;
terminals  x : intrinsic OBJ int ;
nonterminals
  s : syn V int ;
  t : syn V int, syn DEAD int ;
start s ;
productions
prod s = t :
  s.V = t.V + 0 ;
end
prod t = x :
  t.V = x.OBJ ;
  t.DEAD = x.OBJ + 1 ;
end
end
";

/// `s.V` is declared but never defined: an AG007 error.
const INCOMPLETE: &str = "\
grammar Gap ;
terminals  x ;
nonterminals  s : syn V int ;
start s ;
productions
prod s = x :
end
end
";

#[test]
fn check_clean_grammar_exits_zero_in_both_formats() {
    let good = write_tmp("check-good.lg", GOOD);
    let out = linguist().arg("check").arg(&good).output().expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s)"), "{}", stdout);
    let out = linguist()
        .arg("check")
        .arg("--format=json")
        .arg(&good)
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"grammar\":"), "{}", stdout);
    assert!(stdout.contains("\"errors\":0"), "{}", stdout);
}

#[test]
fn check_deny_warnings_flips_the_exit_code() {
    // The paper-faithful pipeline (--opt=off) reports the unused
    // attribute as an AG001 warning, and --deny-warnings makes that
    // warning fatal.
    let warny = write_tmp("check-warny.lg", WARNY);
    let out = linguist()
        .args(["check", "--opt=off"])
        .arg(&warny)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "warnings alone should not fail a plain check: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("warning[AG001]"));
    let out = linguist()
        .args(["check", "--opt=off", "--deny-warnings"])
        .arg(&warny)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1), "--deny-warnings must exit 1");
    // Under the default optimizer the dead attribute is *eliminated*
    // rather than warned about: AG014 is a note, and notes never flip
    // the exit code.
    let out = linguist()
        .args(["check", "--deny-warnings"])
        .arg(&warny)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "the optimizer eliminates the dead attribute, so --deny-warnings \
         has nothing to deny: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("note[AG014]"));
}

#[test]
fn check_errors_exit_one_and_bad_usage_exits_two() {
    let bad = write_tmp("check-gap.lg", INCOMPLETE);
    let out = linguist().arg("check").arg(&bad).output().expect("run");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[AG007]"));
    let out = linguist()
        .args(["check", "--format", "yaml"])
        .arg(&bad)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}

/// The engines are `interpreted` and `aot`; the on-demand `jit` tier is
/// gone, so asking for it is a usage error on every subcommand that
/// takes `--engine`.
#[test]
fn engine_jit_is_a_usage_error() {
    let good = write_tmp("engine-jit.lg", GOOD);
    let out = linguist()
        .arg(&good)
        .args(["--profile", "--engine", "jit"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let out = linguist()
        .args([
            "serve",
            "--socket",
            "/nonexistent/never-bound.sock",
            "--engine",
            "jit",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}

#[test]
fn serve_and_client_subcommands_round_trip() {
    let sock = std::env::temp_dir().join(format!("linguist-cli-serve-{}.sock", std::process::id()));
    let _unused = std::fs::remove_file(&sock);
    let mut daemon = linguist()
        .args(["serve", "--socket"])
        .arg(&sock)
        .args(["--workers", "2", "--queue", "8"])
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    // Wait for the socket to appear.
    let started = Instant::now();
    while !sock.exists() {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "daemon never bound its socket"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let grammar = write_tmp("serve-good.lg", GOOD);
    let load = linguist()
        .args(["client", "--socket"])
        .arg(&sock)
        .arg("load")
        .arg(&grammar)
        .output()
        .expect("client load");
    assert!(
        load.status.success(),
        "load failed: {}",
        String::from_utf8_lossy(&load.stdout)
    );
    let stdout = String::from_utf8_lossy(&load.stdout);
    let handle = stdout
        .split("\"grammar\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("load reply carries the handle")
        .to_string();
    let translate = linguist()
        .args(["client", "--socket"])
        .arg(&sock)
        .args(["translate", &handle, "--budget", "32"])
        .output()
        .expect("client translate");
    assert!(
        translate.status.success(),
        "translate failed: {}",
        String::from_utf8_lossy(&translate.stdout)
    );
    assert!(String::from_utf8_lossy(&translate.stdout).contains("\"outputs\""));
    let stats = linguist()
        .args(["client", "--socket"])
        .arg(&sock)
        .arg("stats")
        .output()
        .expect("client stats");
    assert!(stats.status.success());
    assert!(String::from_utf8_lossy(&stats.stdout).contains("\"cache\""));
    let shutdown = linguist()
        .args(["client", "--socket"])
        .arg(&sock)
        .arg("shutdown")
        .output()
        .expect("client shutdown");
    assert!(shutdown.status.success());
    let code = daemon.wait().expect("daemon exits after shutdown request");
    assert!(code.success(), "daemon exit: {:?}", code);
}

#[test]
fn client_failure_modes_get_distinct_exit_codes() {
    // Exit 3: connection refused (nothing listens on the socket).
    let ghost =
        std::env::temp_dir().join(format!("linguist-cli-ghost-{}.sock", std::process::id()));
    let _unused = std::fs::remove_file(&ghost);
    let out = linguist()
        .args(["client", "--socket"])
        .arg(&ghost)
        .arg("ping")
        .output()
        .expect("client runs");
    assert_eq!(
        out.status.code(),
        Some(3),
        "refused connection must exit 3; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let diag = String::from_utf8_lossy(&out.stderr);
    assert!(
        diag.contains("connect"),
        "stderr should diagnose the connection failure: {}",
        diag
    );

    // Exit 2: usage error (no command at all).
    let out = linguist()
        .args(["client", "--socket"])
        .arg(&ghost)
        .output()
        .expect("client runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");

    // Against a live daemon: exit 1 for a typed server error, exit 4
    // for a timed-out reply.
    let sock = std::env::temp_dir().join(format!("linguist-cli-codes-{}.sock", std::process::id()));
    let _unused = std::fs::remove_file(&sock);
    let mut daemon = linguist()
        .args(["serve", "--socket"])
        .arg(&sock)
        .args(["--workers", "1", "--queue", "4"])
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    let started = Instant::now();
    while !sock.exists() {
        assert!(started.elapsed() < Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = linguist()
        .args(["client", "--socket"])
        .arg(&sock)
        .args(["translate", "no-such-handle", "--budget", "8"])
        .output()
        .expect("client runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "typed server error must exit 1; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("grammar_not_found"));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("grammar_not_found"),
        "stderr should name the error kind"
    );

    // A 1 ms client-side timeout cannot cover a compile: the reply is
    // late, the client reports a timeout and exits 4.
    let grammar = write_tmp("codes-slow.lg", GOOD);
    let out = linguist()
        .args(["client", "--socket"])
        .arg(&sock)
        .args(["--timeout-ms", "1", "load"])
        .arg(&grammar)
        .output()
        .expect("client runs");
    assert_eq!(
        out.status.code(),
        Some(4),
        "timed-out reply must exit 4; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no reply within"),
        "stderr should diagnose the timeout: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    daemon.kill().expect("kill daemon");
    let _unused = daemon.wait();
}

#[test]
fn client_retries_ride_out_a_daemon_that_starts_late() {
    // The daemon comes up ~300 ms after the client starts retrying:
    // with --retries the client must connect on a later attempt and
    // exit 0.
    let sock = std::env::temp_dir().join(format!("linguist-cli-late-{}.sock", std::process::id()));
    let _unused = std::fs::remove_file(&sock);
    let starter = {
        let sock = sock.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            linguist()
                .args(["serve", "--socket"])
                .arg(&sock)
                .args(["--workers", "1"])
                .stderr(Stdio::null())
                .spawn()
                .expect("daemon starts")
        })
    };
    let out = linguist()
        .args(["client", "--socket"])
        .arg(&sock)
        .args(["--retries", "8", "ping"])
        .output()
        .expect("client runs");
    let mut daemon = starter.join().expect("starter thread");
    assert!(
        out.status.success(),
        "retrying client should reach the late daemon; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    daemon.kill().expect("kill daemon");
    let _unused = daemon.wait();
}

#[test]
fn sigterm_drains_the_daemon_and_it_exits_zero() {
    let sock = std::env::temp_dir().join(format!("linguist-cli-term-{}.sock", std::process::id()));
    let _unused = std::fs::remove_file(&sock);
    let mut daemon = linguist()
        .args(["serve", "--socket"])
        .arg(&sock)
        .args(["--workers", "2"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let started = Instant::now();
    while !sock.exists() {
        assert!(started.elapsed() < Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(20));
    }
    // Prove it serves, then send SIGTERM (no client shutdown request).
    let out = linguist()
        .args(["client", "--socket"])
        .arg(&sock)
        .arg("ping")
        .output()
        .expect("client runs");
    assert!(out.status.success());
    let pid = daemon.id() as i32;
    let rc = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(rc.success());
    let deadline = Instant::now() + Duration::from_secs(10);
    let code = loop {
        if let Some(code) = daemon.try_wait().expect("poll daemon") {
            break code;
        }
        assert!(Instant::now() < deadline, "daemon never exited on SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(code.success(), "drained daemon must exit 0, got {:?}", code);
}

/// `linguist codegen` is the offline face of the compiled-evaluator
/// engine: it must emit exactly the source the AOT registry was built
/// from. Pinning the `meta` grammar byte-for-byte against the checked-in
/// workspace member catches any drift between the CLI path and
/// `rustgen` (the standalone layout differs only in file name:
/// `src/main.rs` vs the AOT crate's `src/lib.rs`). The `--opt=off` case
/// has no checked-in crate; it must equal the freshly generated
/// paper-faithful source.
#[test]
fn codegen_subcommand_emits_the_pinned_meta_evaluator() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let grammar = manifest.join("../grammars/lg/meta.lg");
    let pinned = std::fs::read_to_string(manifest.join("../engine/generated/meta_opt/src/lib.rs"))
        .expect("checked-in AOT source");
    let faithful = linguist_frontend::driver::analyze(
        linguist_grammars::meta_source(),
        &linguist_ag::analysis::Config {
            optimize: false,
            ..Default::default()
        },
    )
    .expect("meta analyzes");
    let cases = [
        (vec!["codegen"], pinned),
        (
            vec!["codegen", "--opt=off"],
            linguist_codegen::rustgen::rust_source(&faithful),
        ),
    ];
    for (i, (args, expected)) in cases.iter().enumerate() {
        let out_dir =
            std::env::temp_dir().join(format!("linguist-cli-codegen-{}-{}", std::process::id(), i));
        let _unused = std::fs::remove_dir_all(&out_dir);
        let out = linguist()
            .args(args)
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
        assert_eq!(
            &emitted, expected,
            "CLI codegen {:?} output drifted from the library's meta evaluator \
             (rerun `cargo run --example gen_aot` if rustgen changed)",
            args
        );
        // The standalone manifest must detach from the enclosing workspace
        // so the emitted crate builds with a plain `cargo build`, and name
        // the runtime it links by path.
        let manifest_out = std::fs::read_to_string(out_dir.join("Cargo.toml")).expect("manifest");
        assert!(manifest_out.contains("[workspace]"), "{}", manifest_out);
        assert!(
            manifest_out.contains("linguist-eval = { path = "),
            "{}",
            manifest_out
        );
        let _unused = std::fs::remove_dir_all(&out_dir);
    }
}

#[test]
fn codegen_subcommand_rejects_unanalyzable_grammars_nonzero() {
    let bad = write_tmp(
        "codegen-bad.lg",
        "grammar Broken ;\nthis is not a grammar\n",
    );
    let out = linguist().arg("codegen").arg(&bad).output().expect("run");
    assert!(!out.status.success(), "broken grammar must not exit 0");
    assert!(
        !out.stderr.is_empty(),
        "failure must be explained on stderr"
    );
}
