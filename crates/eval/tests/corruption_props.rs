//! Corruption properties of the checksummed APT v2 format: flipping or
//! truncating *any* single byte of a finished boundary file must surface
//! as a typed `Header`/`Frame`/`Checksum` error — never as a silently
//! wrong `Record` — and a crash at any pass boundary must resume to a
//! byte-identical result.

use linguist_ag::analysis::{Analysis, Config};
use linguist_ag::expr::{BinOp, Expr};
use linguist_ag::grammar::AgBuilder;
use linguist_ag::ids::{AttrId, AttrOcc, ProdId, SymbolId};
use linguist_ag::passes::{Direction, PassConfig};
use linguist_eval::aptfile::{
    AptError, AptReader, AptWriter, FaultSpec, FaultTarget, ReadDir, Record, RecordBody,
};
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{
    evaluate, evaluate_resumable, Backing, EvalOptions, Evaluation, Strategy as BootStrategy,
};
use linguist_eval::tree::PTree;
use linguist_eval::value::Value;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Header length of the v2 format (magic + version + reserved + record
/// and byte totals + header CRC). Kept in sync with `aptfile.rs` by the
/// `header_len_matches_format` test below.
const HEADER_LEN: usize = 28;

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch path per proptest case (the shim generates cases in a
/// loop inside one test fn, so a fixed name would collide across cases).
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "linguist86-corrupt-{}-{}-{}",
        std::process::id(),
        tag,
        CASE.fetch_add(1, Ordering::SeqCst)
    ))
}

fn arb_record() -> impl Strategy<Value = Record> {
    (
        any::<bool>(),
        0u32..50,
        prop::collection::vec((0u32..20, -1_000_000i64..1_000_000), 0..5),
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
                values: values
                    .into_iter()
                    .map(|(a, v)| (AttrId(a), Value::Int(v)))
                    .collect(),
            }
        })
}

fn write_file(path: &std::path::Path, records: &[Record]) {
    let mut w = AptWriter::create(path).unwrap();
    for r in records {
        w.write(r).unwrap();
    }
    w.finish().unwrap();
}

/// Read records until the stream ends or errors.
fn drain(path: &std::path::Path, dir: ReadDir) -> (Vec<Record>, Option<AptError>) {
    let mut out = Vec::new();
    let mut r = match AptReader::open(path, dir) {
        Ok(r) => r,
        Err(e) => return (out, Some(e)),
    };
    loop {
        match r.next() {
            Ok(Some(rec)) => out.push(rec),
            Ok(None) => return (out, None),
            Err(e) => return (out, Some(e)),
        }
    }
}

fn is_typed_corruption(e: &AptError) -> bool {
    matches!(
        e.root(),
        AptError::Header(_) | AptError::Frame { .. } | AptError::Checksum { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flip one arbitrary byte anywhere in a finished file: every read
    /// direction either fails with a typed corruption error before the
    /// flipped byte is consumed, and every record served up to that point
    /// is bit-for-bit the pristine one. No flip may pass undetected.
    #[test]
    fn single_byte_flips_are_always_detected(
        records in prop::collection::vec(arb_record(), 1..12),
        offset_seed in any::<u64>(),
        mask in 1u8..=255,
        forward in any::<bool>(),
    ) {
        let path = scratch("flip");
        write_file(&path, &records);
        let dir = if forward { ReadDir::Forward } else { ReadDir::Backward };
        let (pristine, pristine_err) = drain(&path, dir);
        prop_assert!(pristine_err.is_none(), "pristine file must read clean");
        prop_assert_eq!(pristine.len(), records.len());

        let mut data = std::fs::read(&path).unwrap();
        let offset = (offset_seed % data.len() as u64) as usize;
        data[offset] ^= mask;
        std::fs::write(&path, &data).unwrap();

        let (read, err) = drain(&path, dir);
        let e = err.expect("a corrupted file must not read clean");
        prop_assert!(
            is_typed_corruption(&e),
            "flip at {} must be Header/Frame/Checksum, got {:?}", offset, e
        );
        if offset < HEADER_LEN {
            prop_assert!(
                matches!(e.root(), AptError::Header(_)),
                "header flip at {} must fail at open, got {:?}", offset, e
            );
            prop_assert!(read.is_empty());
        }
        // The records served before the error are a pristine prefix (in
        // the direction of travel) — corruption never rewrites a record.
        prop_assert!(read.len() < pristine.len());
        prop_assert_eq!(&read[..], &pristine[..read.len()]);
        std::fs::remove_file(&path).ok();
    }

    /// Truncate a finished file at any point short of its full length:
    /// the header's byte total no longer matches, so `open` fails with a
    /// typed `Header` error in both directions — a half-written boundary
    /// file can never be mistaken for a complete one.
    #[test]
    fn truncation_is_always_detected_at_open(
        records in prop::collection::vec(arb_record(), 1..12),
        cut_seed in any::<u64>(),
        forward in any::<bool>(),
    ) {
        let path = scratch("cut");
        write_file(&path, &records);
        let len = std::fs::metadata(&path).unwrap().len();
        let cut = cut_seed % len; // strictly shorter than the real file
        let mut data = std::fs::read(&path).unwrap();
        data.truncate(cut as usize);
        std::fs::write(&path, &data).unwrap();

        let dir = if forward { ReadDir::Forward } else { ReadDir::Backward };
        match AptReader::open(&path, dir) {
            Err(e) => prop_assert!(
                matches!(e.root(), AptError::Header(_)),
                "truncation to {} of {} must be a Header error, got {:?}", cut, len, e
            ),
            Ok(_) => prop_assert!(false, "truncated file must not open"),
        }
        std::fs::remove_file(&path).ok();
    }
}

// ---- crash/resume property -------------------------------------------------

/// S -> A B with A.I = B.V (right-to-left flow) and A.V = A.I + 100: a
/// two-pass grammar whose checkpoint at boundary 1 carries real
/// cross-pass state.
fn two_pass_analysis() -> Analysis {
    let mut b = AgBuilder::new();
    let s = b.nonterminal("S");
    let sv = b.synthesized(s, "V", "int");
    let a = b.nonterminal("A");
    let ai = b.inherited(a, "I", "int");
    let av = b.synthesized(a, "V", "int");
    let bb = b.nonterminal("B");
    let bv = b.synthesized(bb, "V", "int");
    let x = b.terminal("x");
    let obj = b.intrinsic(x, "OBJ", "int");
    let p0 = b.production(s, vec![a, bb], None);
    b.rule(
        p0,
        vec![AttrOcc::rhs(0, ai)],
        Expr::Occ(AttrOcc::rhs(1, bv)),
    );
    b.rule(p0, vec![AttrOcc::lhs(sv)], Expr::Occ(AttrOcc::rhs(0, av)));
    let p1 = b.production(a, vec![x], None);
    b.rule(
        p1,
        vec![AttrOcc::lhs(av)],
        Expr::binop(BinOp::Add, Expr::Occ(AttrOcc::lhs(ai)), Expr::Int(100)),
    );
    let p2 = b.production(bb, vec![x], None);
    b.rule(p2, vec![AttrOcc::lhs(bv)], Expr::Occ(AttrOcc::rhs(0, obj)));
    b.start(s);
    Analysis::run(
        b.build().unwrap(),
        &Config {
            pass: PassConfig {
                first_direction: Direction::LeftToRight,
                max_passes: 8,
            },
            ..Config::default()
        },
    )
    .unwrap()
}

fn two_pass_tree(analysis: &Analysis, left: i64, right: i64) -> PTree {
    let g = &analysis.grammar;
    let x = g.symbol_by_name("x").unwrap();
    let obj = g.attr_by_name(x, "OBJ").unwrap();
    PTree::node(
        ProdId(0),
        vec![
            PTree::node(
                ProdId(1),
                vec![PTree::leaf(x, vec![(obj, Value::Int(left))])],
            ),
            PTree::node(
                ProdId(2),
                vec![PTree::leaf(x, vec![(obj, Value::Int(right))])],
            ),
        ],
    )
}

fn encoded_outputs(eval: &Evaluation) -> Vec<u8> {
    let mut buf = Vec::new();
    for (a, v) in &eval.outputs {
        buf.extend_from_slice(&a.0.to_le_bytes());
        v.encode(&mut buf);
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Inject a one-shot fault at an arbitrary pass and record offset,
    /// then resume from the surviving checkpoints: the final attributed
    /// output is byte-identical to uninterrupted runs on *both* backings.
    #[test]
    fn crash_at_any_boundary_resumes_byte_identical(
        left in -1_000i64..1_000,
        right in -1_000i64..1_000,
        fault_pass in 0u16..3,
        after in 0u64..8,
        write_side in any::<bool>(),
    ) {
        let analysis = two_pass_analysis();
        prop_assert_eq!(analysis.passes.num_passes(), 2);
        let tree = two_pass_tree(&analysis, left, right);
        let funcs = Funcs::standard();
        let prefix = EvalOptions { strategy: BootStrategy::Prefix, ..EvalOptions::default() };

        let disk = evaluate(&analysis, &funcs, &tree, &prefix).unwrap();
        let mem = evaluate(&analysis, &funcs, &tree, &EvalOptions {
            backing: Backing::Memory,
            ..prefix.clone()
        }).unwrap();
        prop_assert_eq!(encoded_outputs(&disk), encoded_outputs(&mem));

        let ckpt = scratch("resume");
        let target = if write_side { FaultTarget::Write } else { FaultTarget::Read };
        let faulted = EvalOptions {
            fault: Some(FaultSpec::new(fault_pass, target, after)),
            ..prefix.clone()
        };
        let resumed = match evaluate_resumable(&analysis, &funcs, &tree, &faulted, &ckpt) {
            // A late record offset (or a read fault on pass 0, which has
            // no input file) may never fire: the run completes untouched.
            Ok(eval) => eval,
            Err(_) => match Evaluation::resume(&analysis, &funcs, &prefix, &ckpt) {
                Ok(eval) => eval,
                // Crashed before checkpointing anything: restart fresh,
                // still through the checkpoint path.
                Err(_) => {
                    evaluate_resumable(&analysis, &funcs, &tree, &prefix, &ckpt).unwrap()
                }
            },
        };
        prop_assert_eq!(
            encoded_outputs(&resumed),
            encoded_outputs(&disk),
            "crash at pass {} after {} records must resume byte-identical",
            fault_pass, after
        );
        std::fs::remove_dir_all(&ckpt).ok();
    }
}

/// Pins the local `HEADER_LEN` mirror to the real format: a one-record
/// file is exactly header + frame overhead + payload bytes.
#[test]
fn header_len_matches_format() {
    let path = scratch("hdr");
    let rec = Record {
        body: RecordBody::Sym(SymbolId(1)),
        values: vec![],
    };
    write_file(&path, std::slice::from_ref(&rec));
    let len = std::fs::metadata(&path).unwrap().len() as usize;
    // Lead length, CRC and trail length frame the payload.
    assert_eq!(len, HEADER_LEN + 12 + rec.encode().len());
    std::fs::remove_file(&path).ok();
}
