//! Property-based tests over the core invariants: bidirectional APT
//! files, value encoding, both bootstrap strategies, subsumption
//! transparency, and the translator against a reference oracle.

use linguist86::ag::analysis::{Analysis, Config};
use linguist86::ag::expr::{BinOp, Expr};
use linguist86::ag::grammar::AgBuilder;
use linguist86::ag::ids::{AttrId, AttrOcc, ProdId, SymbolId};
use linguist86::ag::passes::{Direction, PassConfig};
use linguist86::eval::aptfile::{AptReader, AptWriter, ReadDir, Record, RecordBody, TempAptDir};
use linguist86::eval::funcs::Funcs;
use linguist86::eval::machine::{evaluate, Backing, EvalOptions, Strategy as BootStrategy};
use linguist86::eval::tree::PTree;
use linguist86::eval::value::Value;
use linguist86::frontend::driver::{run, DriverOptions};
use linguist86::frontend::Translator;
use linguist86::grammars::synth::{generate, SynthParams};
use linguist86::grammars::{calc_scanner, calc_source};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[a-z]{0,8}".prop_map(|s| Value::str(&s)),
        (0u32..1000)
            .prop_map(|i| Value::Sym(linguist86::support::intern::Name::from_index(i as usize))),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4)
                .prop_map(|v| Value::List(v.into_iter().collect())),
            prop::collection::vec(inner, 0..4).prop_map(|v| Value::Set(v.into_iter().collect())),
        ]
    })
}

fn arb_record() -> impl Strategy<Value = Record> {
    (
        any::<bool>(),
        0u32..50,
        prop::collection::vec((0u32..20, arb_value()), 0..5),
    )
        .prop_map(|(is_sym, id, mut values)| {
            values.sort_by_key(|(a, _)| *a);
            values.dedup_by_key(|(a, _)| *a);
            Record {
                body: if is_sym {
                    RecordBody::Sym(SymbolId(id))
                } else {
                    RecordBody::Prod(ProdId(id))
                },
                values: values.into_iter().map(|(a, v)| (AttrId(a), v)).collect(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Values decode to exactly what was encoded.
    #[test]
    fn value_encoding_round_trips(v in arb_value()) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut pos = 0;
        let back = Value::decode(&buf, &mut pos).unwrap();
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(back, v);
    }

    /// An APT file reads back identically forward, and reversed backward —
    /// the §II "read the output file backwards" invariant.
    #[test]
    fn apt_file_bidirectional(records in prop::collection::vec(arb_record(), 0..20)) {
        let dir = TempAptDir::new().unwrap();
        let path = dir.boundary(0);
        let mut w = AptWriter::create(&path).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();

        let mut fwd = Vec::new();
        let mut r = AptReader::open(&path, ReadDir::Forward).unwrap();
        while let Some(rec) = r.next().unwrap() {
            fwd.push(rec);
        }
        prop_assert_eq!(&fwd, &records);

        let mut bwd = Vec::new();
        let mut r = AptReader::open(&path, ReadDir::Backward).unwrap();
        while let Some(rec) = r.next().unwrap() {
            bwd.push(rec);
        }
        bwd.reverse();
        prop_assert_eq!(&bwd, &records);
    }
}

/// Build the summing grammar used by the strategy-agreement property.
fn sum_grammar(first: Direction) -> Analysis {
    let mut b = AgBuilder::new();
    let s = b.nonterminal("S");
    let v = b.synthesized(s, "V", "int");
    let x = b.terminal("x");
    let obj = b.intrinsic(x, "OBJ", "int");
    let p0 = b.production(s, vec![s, x], None);
    b.rule(
        p0,
        vec![AttrOcc::lhs(v)],
        Expr::binop(
            BinOp::Add,
            Expr::Occ(AttrOcc::rhs(0, v)),
            Expr::Occ(AttrOcc::rhs(1, obj)),
        ),
    );
    let p1 = b.production(s, vec![x], None);
    b.rule(p1, vec![AttrOcc::lhs(v)], Expr::Occ(AttrOcc::rhs(0, obj)));
    b.start(s);
    Analysis::run(
        b.build().unwrap(),
        &Config {
            pass: PassConfig {
                first_direction: first,
                max_passes: 4,
            },
            ..Config::default()
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both §II strategies compute the same translation, equal to the
    /// reference sum.
    #[test]
    fn strategies_agree_with_oracle(values in prop::collection::vec(-100i64..100, 1..40)) {
        let a_rl = sum_grammar(Direction::RightToLeft);
        let a_lr = sum_grammar(Direction::LeftToRight);
        let build = |a: &Analysis| {
            let g = &a.grammar;
            let x = g.symbol_by_name("x").unwrap();
            let obj = g.attr_by_name(x, "OBJ").unwrap();
            let mut t = PTree::node(ProdId(1), vec![PTree::leaf(x, vec![(obj, Value::Int(values[0]))])]);
            for &v in &values[1..] {
                t = PTree::node(ProdId(0), vec![t, PTree::leaf(x, vec![(obj, Value::Int(v))])]);
            }
            t
        };
        let funcs = Funcs::standard();
        let r1 = evaluate(&a_rl, &funcs, &build(&a_rl), &EvalOptions {
            strategy: BootStrategy::BottomUp,
            ..EvalOptions::default()
        }).unwrap();
        let r2 = evaluate(&a_lr, &funcs, &build(&a_lr), &EvalOptions {
            strategy: BootStrategy::Prefix,
            ..EvalOptions::default()
        }).unwrap();
        let expected: i64 = values.iter().sum();
        prop_assert_eq!(r1.output(&a_rl, "V"), Some(&Value::Int(expected)));
        prop_assert_eq!(r2.output(&a_lr, "V"), Some(&Value::Int(expected)));
    }

    /// Static subsumption never changes results on synthetic grammars.
    #[test]
    fn subsumption_is_transparent(
        density in 0.0f64..1.0,
        seed in 0u64..1000,
        len in 1usize..40,
    ) {
        let params = SynthParams {
            copy_density: density,
            seed,
            ..SynthParams::default()
        };
        let sg = generate(&params);
        let with = Analysis::run(sg.grammar.clone(), &Config::default()).unwrap();
        let without = Analysis::run(sg.grammar.clone(), &Config {
            disable_subsumption: true,
            ..Config::default()
        }).unwrap();
        let tree = sg.chain(len, seed ^ 0x5eed);
        let funcs = Funcs::standard();
        let r1 = evaluate(&with, &funcs, &tree, &EvalOptions::default()).unwrap();
        let r2 = evaluate(&without, &funcs, &tree, &EvalOptions::default()).unwrap();
        prop_assert_eq!(r1.output(&with, "OUT"), r2.output(&without, "OUT"));
        prop_assert_eq!(r1.stats.globals_repaired, 0);
    }
}

/// Arbitrary arithmetic expression strings plus their reference value.
fn arb_expr() -> impl Strategy<Value = (String, i64)> {
    let leaf = (0i64..100).prop_map(|n| (n.to_string(), n));
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|((sa, va), (sb, vb))| {
                (format!("{}+{}", sa, sb), va.wrapping_add(vb))
            }),
            (inner.clone(), inner.clone()).prop_map(|((sa, va), (sb, vb))| {
                // Subtraction binds left in the grammar; parenthesize the
                // right operand to keep the oracle simple.
                (format!("{}-({})", sa, sb), va.wrapping_sub(vb))
            }),
            (inner.clone(), inner.clone()).prop_map(|((sa, va), (sb, vb))| {
                (format!("({})*({})", sa, sb), va.wrapping_mul(vb))
            }),
            inner.prop_map(|(s, v)| (format!("({})", s), v)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The generated calculator agrees with a reference evaluator on
    /// random expressions.
    #[test]
    fn calculator_matches_oracle((src, expected) in arb_expr()) {
        // Build once per process would be nicer; cheap enough here.
        let out = run(calc_source(), &DriverOptions::default()).unwrap();
        let t = Translator::new(out.analysis, calc_scanner()).unwrap();
        let r = t.translate(&src, &Funcs::standard(), &EvalOptions::default()).unwrap();
        prop_assert_eq!(r.output(&t.analysis, "V"), Some(&Value::Int(expected)));
    }
}

/// One translator per bootstrap configuration for the block grammar:
/// right-to-left first (bottom-up initial file, 2 passes) and
/// left-to-right first (prefix initial file, 1 pass). Built once — the
/// conservation property below re-evaluates them per case.
fn block_translators() -> &'static [(Translator, BootStrategy)] {
    use linguist86::grammars::{block_scanner, block_source};
    use std::sync::OnceLock;
    static T: OnceLock<Vec<(Translator, BootStrategy)>> = OnceLock::new();
    T.get_or_init(|| {
        [
            (Direction::RightToLeft, BootStrategy::BottomUp),
            (Direction::LeftToRight, BootStrategy::Prefix),
        ]
        .into_iter()
        .map(|(dir, strat)| {
            let opts = DriverOptions {
                config: Config {
                    pass: PassConfig {
                        first_direction: dir,
                        max_passes: 8,
                    },
                    ..Config::default()
                },
                target: None,
                ..DriverOptions::default()
            };
            let out = run(block_source(), &opts).unwrap();
            (
                Translator::new(out.analysis, block_scanner()).unwrap(),
                strat,
            )
        })
        .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Intermediate-file conservation: whatever pass k writes to
    /// boundary k, pass k+1 reads back in full — records and bytes —
    /// and pass 1 reads exactly the initial file. Holds for both
    /// backings (disk and the owned shared-nothing memory store) and for
    /// both bootstrap strategies
    /// (which exercise both traversal directions of the record format).
    #[test]
    fn pass_io_is_conserved_across_boundaries(decls in 1usize..5, depth in 1usize..4) {
        use linguist86::grammars::block_program;
        let program = block_program(decls, depth);
        for (t, strat) in block_translators() {
            for backing in [Backing::Disk, Backing::Memory] {
                let opts = EvalOptions {
                    strategy: *strat,
                    backing,
                    ..EvalOptions::default()
                };
                let eval = t
                    .translate(&program, &Funcs::standard(), &opts)
                    .unwrap();
                let m = &eval.stats;
                prop_assert!(!m.passes.is_empty());
                prop_assert_eq!(m.passes[0].records_read, m.initial_records);
                prop_assert_eq!(m.passes[0].bytes_read, m.initial_bytes);
                for w in m.passes.windows(2) {
                    prop_assert_eq!(w[1].records_read, w[0].records_written);
                    prop_assert_eq!(w[1].bytes_read, w[0].bytes_written);
                }
            }
        }
    }
}

/// One FNV to rule them all: the serve tier's grammar handles, the code
/// generator's compiled-artifact keys, and `linguist_support::fnv` must
/// agree byte for byte on the same payload — they are advertised as the
/// *same* content-address scheme, and the engine's artifact lookup
/// depends on it.
#[test]
fn content_hash_schemes_agree_across_crates() {
    use linguist86::support::fnv;

    let src = calc_source();
    // grammar_key(source, None) hashes `source ++ "\0" ++ ""`.
    let want = fnv::hex16(fnv::hash_chunks(&[src.as_bytes(), b"\0", b""]));
    assert_eq!(linguist_serve::store::grammar_key(src, None), want);
    let mut payload = src.as_bytes().to_vec();
    payload.push(0);
    assert_eq!(linguist86::codegen::rustgen::content_hash(&payload), want);
    // Chunked and contiguous hashing are the same function.
    assert_eq!(
        fnv::hash(&payload),
        fnv::hash_chunks(&[src.as_bytes(), b"\0"])
    );
}
