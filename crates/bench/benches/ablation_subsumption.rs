//! E13 — static-subsumption ablations (the paper's conclusions ask
//! "whether a more complete and global analysis … can yield markedly
//! better static subsumption results").
//!
//! Three sweeps over the synthetic grammar family:
//!   1. copy density vs code eliminated (the 40–60% copy-rule regime),
//!   2. the cost-model ratio (save/restore vs copy),
//!   3. same-name grouping vs the cross-name coalescing extension.

use linguist_ag::analysis::{Analysis, Config};
use linguist_ag::subsumption::{GroupMode, Subsumption, SubsumptionCosts};
use linguist_bench::{faithful, rule};
use linguist_codegen::{generate, Target};
use linguist_grammars::synth::{generate as synth, SynthParams};

fn eliminated_fraction(analysis: &Analysis) -> f64 {
    let with = generate(analysis, Target::Pascal).semantic_bytes();
    let mut disabled = analysis.clone();
    disabled.subsumption = Subsumption::disabled(&analysis.grammar);
    let without = generate(&disabled, Target::Pascal).semantic_bytes();
    (without.saturating_sub(with)) as f64 / without.max(1) as f64
}

fn main() {
    rule("E13a: copy density vs code eliminated");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "density", "copies %", "subsumed", "code elim %"
    );
    for density in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let sg = synth(&SynthParams {
            copy_density: density,
            ..SynthParams::default()
        });
        let analysis = Analysis::run(sg.grammar.clone(), &faithful().config).unwrap();
        let stats = analysis.stats();
        let sub = analysis.subsumption.stats(&analysis.grammar);
        println!(
            "{:>10.1} {:>11.0}% {:>12} {:>11.1}%",
            density,
            100.0 * stats.copy_fraction(),
            sub.subsumed_rules,
            100.0 * eliminated_fraction(&analysis)
        );
    }

    println!("\n(mid-range densities can dip: the byte-estimate cost model may keep a group whose");
    println!(
        " emitted save/restore outweighs its subsumed copies — the paper's algorithm likewise"
    );
    println!(" \"does not always find an optimal set of attributes to statically allocate\")");

    rule("E13b: cost-model sweep (save_restore : copy ratio)");
    println!(
        "{:>10} {:>14} {:>12} {:>12}",
        "ratio", "static attrs", "subsumed", "sr sites"
    );
    let sg = synth(&SynthParams::default());
    for ratio in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let costs = SubsumptionCosts {
            copy: 12,
            save_restore: (12.0 * ratio) as usize,
        };
        let analysis = Analysis::run(
            sg.grammar.clone(),
            &Config {
                costs,
                ..faithful().config
            },
        )
        .unwrap();
        let sub = analysis.subsumption.stats(&analysis.grammar);
        println!(
            "{:>10.2} {:>10}/{:<3} {:>12} {:>12}",
            ratio, sub.static_attrs, sub.eligible_attrs, sub.subsumed_rules, sub.save_restore_sites
        );
    }

    rule("E13c: same-name grouping vs cross-name coalescing");
    println!(
        "{:>10} {:>16} {:>16}",
        "density", "same-name subs", "coalesced subs"
    );
    for density in [0.3, 0.5, 0.7] {
        let sg = synth(&SynthParams {
            copy_density: density,
            ..SynthParams::default()
        });
        let same = Analysis::run(sg.grammar.clone(), &faithful().config).unwrap();
        let coal = Analysis::run(
            sg.grammar.clone(),
            &Config {
                group_mode: GroupMode::CoalesceCopies,
                ..faithful().config
            },
        )
        .unwrap();
        println!(
            "{:>10.1} {:>16} {:>16}",
            density,
            same.subsumption.stats(&same.grammar).subsumed_rules,
            coal.subsumption.stats(&coal.grammar).subsumed_rules
        );
    }
    println!("\n(the paper's \"hand simulations made use of global information\" — coalescing is that global step)");
}
