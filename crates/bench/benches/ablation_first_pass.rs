//! E14 — the two §II bootstrap strategies.
//!
//! "LINGUIST-86 supports both of these strategies … The only difference
//! in the attribute evaluators is whether the first attribute evaluation
//! pass is right-to-left (the first approach) or left-to-right (the
//! second approach)." We run the same workloads both ways: results must
//! agree; pass counts may differ per grammar (a direction can suit a
//! grammar's flow better).

use linguist_ag::analysis::Config;
use linguist_ag::passes::{Direction, PassConfig};
use linguist_bench::{analyze, faithful, median_time, rule, us};
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{EvalOptions, Strategy};
use linguist_frontend::driver::DriverOptions;
use linguist_frontend::Translator;
use linguist_grammars::{
    block_program, block_scanner, block_source, calc_scanner, calc_source, pascal_program,
    pascal_scanner, pascal_source,
};

fn options(first: Direction) -> DriverOptions {
    DriverOptions {
        config: Config {
            pass: PassConfig {
                first_direction: first,
                max_passes: 16,
            },
            ..faithful().config
        },
        ..DriverOptions::default()
    }
}

fn main() {
    rule("E14: bottom-up (R-L first) vs prefix (L-R first) strategies");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>14} {:>8}",
        "grammar", "passes R-L", "passes L-R", "time R-L", "time L-R", "agree"
    );

    let funcs = Funcs::standard();
    for (name, src, scanner, input) in [
        (
            "calc",
            calc_source(),
            calc_scanner as fn() -> linguist_lexgen::Scanner,
            "1+2*(3+4)-5".to_owned(),
        ),
        (
            "pascal",
            pascal_source(),
            pascal_scanner as fn() -> linguist_lexgen::Scanner,
            pascal_program(6, 60),
        ),
        (
            "block",
            block_source(),
            block_scanner as fn() -> linguist_lexgen::Scanner,
            block_program(4, 6),
        ),
    ] {
        let rl = analyze(src, &options(Direction::RightToLeft));
        let lr = analyze(src, &options(Direction::LeftToRight));
        let passes_rl = rl.stats.passes;
        let passes_lr = lr.stats.passes;
        let t_rl = Translator::new(rl.analysis, scanner()).expect("translator");
        let t_lr = Translator::new(lr.analysis, scanner()).expect("translator");
        let opts_rl = EvalOptions {
            strategy: Strategy::BottomUp,
            check_globals: false,
            ..EvalOptions::default()
        };
        let opts_lr = EvalOptions {
            strategy: Strategy::Prefix,
            check_globals: false,
            ..EvalOptions::default()
        };
        let r1 = t_rl.translate(&input, &funcs, &opts_rl).expect("R-L run");
        let r2 = t_lr.translate(&input, &funcs, &opts_lr).expect("L-R run");
        let agree = r1
            .outputs
            .iter()
            .map(|(_, v)| v)
            .eq(r2.outputs.iter().map(|(_, v)| v));
        assert!(agree, "{}: the two strategies must agree", name);

        let d_rl = median_time(5, || {
            let _ = t_rl.translate(&input, &funcs, &opts_rl);
        });
        let d_lr = median_time(5, || {
            let _ = t_lr.translate(&input, &funcs, &opts_lr);
        });
        println!(
            "{:<10} {:>12} {:>12} {:>14} {:>14} {:>8}",
            name,
            passes_rl,
            passes_lr,
            us(d_rl),
            us(d_lr),
            "yes"
        );
    }
    println!("\n(LINGUIST-86 itself used the bottom-up method; both must compute identical translations)");
}
