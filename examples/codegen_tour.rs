//! Tour of the evaluator code generator: the p.165-style
//! production-procedures, the per-pass size table (husk vs semantic
//! code), and the effect of static subsumption — all on the
//! paper-faithful analysis (grammar optimizer off).
//!
//! ```sh
//! cargo run --example codegen_tour
//! ```

use linguist86::ag::analysis::Config;
use linguist86::ag::ids::ProdId;
use linguist86::codegen::{emit_procedure, generate, Target};
use linguist86::frontend::driver::{run, DriverOptions};
use linguist86::grammars::meta_source;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let faithful = Config {
        optimize: false,
        ..Config::default()
    };
    let out = run(
        meta_source(),
        &DriverOptions {
            config: faithful,
            ..DriverOptions::default()
        },
    )?;
    let analysis = &out.analysis;

    // One production-procedure, as the paper prints one (p.165).
    println!("== a generated production-procedure (pass 2, symdecls cons) ==\n");
    // Find the symdecls-cons production.
    let g = &analysis.grammar;
    let symdecls = g.symbol_by_name("symdecls").unwrap();
    let prod = g
        .productions()
        .iter()
        .position(|p| p.lhs == symdecls && p.rhs.len() == 2)
        .expect("symdecls cons production");
    let proc = emit_procedure(analysis, ProdId(prod as u32), 2, Target::Pascal);
    println!("{}", proc.source);
    println!(
        "husk {} B, semantic {} B ({} B of save/restore), {} subsumed copy-rule(s)\n",
        proc.husk_bytes, proc.semantic_bytes, proc.save_restore_bytes, proc.subsumed_rules
    );

    // The §V pass-size table.
    println!("== per-pass module sizes (the paper's §V table) ==\n");
    let evaluator = generate(analysis, Target::Pascal);
    for p in &evaluator.passes {
        println!(
            "  pass {} - {:>6} bytes  (semantic {:>6} B)",
            p.pass,
            p.total_bytes(),
            p.semantic_bytes
        );
    }
    println!(
        "  husk   - {:>6} bytes  (same for every pass)\n",
        evaluator.husk_bytes()
    );

    // With vs without static subsumption.
    let without = {
        let rerun = run(
            meta_source(),
            &DriverOptions {
                config: Config {
                    disable_subsumption: true,
                    ..faithful
                },
                target: None,
                ..DriverOptions::default()
            },
        )?;
        generate(&rerun.analysis, Target::Pascal)
    };
    let with_sem = evaluator.semantic_bytes();
    let without_sem = without.semantic_bytes();
    println!("== static subsumption (the paper's §III measurement) ==\n");
    println!("  semantic code with    subsumption: {:>6} B", with_sem);
    println!("  semantic code without subsumption: {:>6} B", without_sem);
    println!(
        "  eliminated: {:.1}%  (the paper reports ~20% on its own grammar)",
        100.0 * (without_sem.saturating_sub(with_sem)) as f64 / without_sem as f64
    );

    // The Rust flavour of the same evaluator.
    println!("\n== the same evaluator, Rust-flavoured (excerpt) ==\n");
    let rust = generate(analysis, Target::Rust);
    for line in rust.passes[0].source.lines().take(18) {
        println!("{}", line);
    }
    Ok(())
}
