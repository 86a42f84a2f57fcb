//! Hostile bytes into the compiled evaluators.
//!
//! The checked-in AOT evaluators read boundary-0 files through
//! `linguist-eval`'s checksummed APT reader and value decoder, the same
//! code the interpreter runs. For each of the five, one valid boundary-0
//! input is built exactly as the engine builds it, then:
//!
//! * every byte is XOR-flipped and, separately, the input is truncated
//!   at every offset;
//! * each record in turn is replaced by a hostile payload inside a
//!   correctly framed file (valid header, valid CRCs): a list, set or map
//!   count of 2^32 - 1, an unknown symbol or production id, an attribute
//!   id past every table, non-set values in the attribute slots where
//!   set builtins read, lists nested 10,001 deep, and trailing bytes
//!   after the record.
//!
//! Each call must return `Err` or the unmodified input's exact output —
//! never panic, never abort.

use linguist86::ag::analysis::Analysis;
use linguist86::ag::grammar::AttrClass;
use linguist86::ag::ids::{AttrId, SymbolId};
use linguist86::eval::aptfile::{AptReader, AptWriter, ReadDir};
use linguist86::eval::crc::crc32;
use linguist86::eval::machine::{EvalError, Strategy};
use linguist86::eval::value::Value;
use linguist86::frontend::differential::strategy_for;
use linguist86::frontend::synthesize_tree;
use linguist86::grammars::{
    analyze, block_source, calc_source, knuth_source, meta_source, pascal_source,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

type EvaluateApt = fn(&[u8]) -> Result<Vec<(AttrId, Value)>, EvalError>;

/// `(name, source, synthesis budget, the crate's entry point)`. Budgets
/// stay small: every mutation re-runs the whole evaluator.
fn evaluators() -> [(&'static str, &'static str, usize, EvaluateApt); 5] {
    [
        (
            "calc",
            calc_source(),
            40,
            linguist_aot_calc_opt::evaluate_apt,
        ),
        (
            "knuth",
            knuth_source(),
            24,
            linguist_aot_knuth_opt::evaluate_apt,
        ),
        (
            "block",
            block_source(),
            40,
            linguist_aot_block_opt::evaluate_apt,
        ),
        (
            "meta",
            meta_source(),
            60,
            linguist_aot_meta_opt::evaluate_apt,
        ),
        (
            "pascal",
            pascal_source(),
            40,
            linguist_aot_pascal_opt::evaluate_apt,
        ),
    ]
}

/// One valid boundary-0 file for `analysis`, written the way the engine
/// writes it for the compiled evaluator.
fn valid_input(analysis: &Analysis, budget: usize) -> Vec<u8> {
    let tree = synthesize_tree(&analysis.grammar, budget).expect("finite derivation");
    let mut w = AptWriter::create_owned();
    match strategy_for(analysis) {
        Strategy::BottomUp => tree.write_postfix(&analysis.grammar, &analysis.lifetimes, &mut w),
        Strategy::Prefix => tree.write_prefix(&analysis.grammar, &analysis.lifetimes, &mut w),
    }
    .expect("owned writer accepts the tree");
    w.finish_owned().expect("owned writer seals").1
}

/// Run `eval` on `input`; `None` if it panicked, else whether the result
/// is acceptable (an error, or exactly `want`).
fn acceptable(eval: EvaluateApt, input: &[u8], want: &[(AttrId, Value)]) -> Option<bool> {
    match catch_unwind(AssertUnwindSafe(|| eval(input))) {
        Err(_) => None,
        Ok(Err(_)) => Some(true),
        Ok(Ok(out)) => Some(out == want),
    }
}

#[test]
fn generated_evaluators_reject_flipped_and_truncated_inputs() {
    for (name, source, budget, eval) in evaluators() {
        let analysis = analyze(source).expect("bundled grammar analyzes").analysis;
        let valid = valid_input(&analysis, budget);
        let want = eval(&valid).unwrap_or_else(|e| panic!("{}: valid input fails: {}", name, e));
        for at in 0..valid.len() {
            let mut flipped = valid.clone();
            flipped[at] ^= 0xff;
            match acceptable(eval, &flipped, &want) {
                None => panic!("{}: panicked on byte {} flipped", name, at),
                Some(ok) => assert!(ok, "{}: wrong output with byte {} flipped", name, at),
            }
        }
        for len in 0..valid.len() {
            match acceptable(eval, &valid[..len], &want) {
                None => panic!("{}: panicked on input truncated to {} bytes", name, len),
                Some(ok) => assert!(ok, "{}: wrong output truncated to {} bytes", name, len),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile payloads in correctly framed files.
// ---------------------------------------------------------------------------

/// The record payloads of a valid file, in file order.
fn payloads(file: &[u8]) -> Vec<Vec<u8>> {
    let mut r = AptReader::open_shared(Arc::new(file.to_vec()), ReadDir::Forward)
        .expect("valid file opens");
    let mut out = Vec::new();
    while let Some(rec) = r.next().expect("valid file reads") {
        out.push(rec.encode());
    }
    out
}

/// Frame `payloads` into a file whose header and record CRCs are valid,
/// whatever the payloads hold.
fn frame(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut body = Vec::new();
    for p in payloads {
        let len = (p.len() as u32).to_le_bytes();
        body.extend_from_slice(&len);
        body.extend_from_slice(p);
        body.extend_from_slice(&crc32(p).to_le_bytes());
        body.extend_from_slice(&len);
    }
    let mut file = Vec::with_capacity(28 + body.len());
    file.extend_from_slice(b"APT1");
    file.extend_from_slice(&2u16.to_le_bytes());
    file.extend_from_slice(&[0, 0]);
    file.extend_from_slice(&(payloads.len() as u64).to_le_bytes());
    file.extend_from_slice(&(body.len() as u64).to_le_bytes());
    let crc = crc32(&file);
    file.extend_from_slice(&crc.to_le_bytes());
    file.extend_from_slice(&body);
    file
}

/// Payload layout: tag (0 symbol, 1 production), id u32, value count u16,
/// then `[attr u32][value]` per value.
fn is_sym(payload: &[u8]) -> bool {
    payload[0] == 0
}

fn with_id(payload: &[u8], id: u32) -> Vec<u8> {
    let mut p = payload.to_vec();
    p[1..5].copy_from_slice(&id.to_le_bytes());
    p
}

/// `payload` with one more `[attr][value bytes]` pair.
fn with_value(payload: &[u8], attr: u32, value: &[u8]) -> Vec<u8> {
    let mut p = payload.to_vec();
    let count = u16::from_le_bytes([p[5], p[6]]) + 1;
    p[5..7].copy_from_slice(&count.to_le_bytes());
    p.extend_from_slice(&attr.to_le_bytes());
    p.extend_from_slice(value);
    p
}

fn encoded(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode(&mut out);
    out
}

/// Every hostile replacement of record `payload`, with a label.
fn mutations(analysis: &Analysis, payload: &[u8]) -> Vec<(String, Vec<u8>)> {
    let g = &analysis.grammar;
    let mut out = Vec::new();
    for (tag, kind) in [(4u8, "list"), (5, "set"), (6, "map")] {
        out.push((
            format!("{} count 2^32-1", kind),
            with_value(payload, 0, &[tag, 0xff, 0xff, 0xff, 0xff]),
        ));
    }
    if is_sym(payload) {
        out.push(("unknown symbol id".into(), with_id(payload, 0xffff_ff00)));
        // A non-set value in every computed attribute slot of the node —
        // among them the set-typed ones `UnionSetof`, `IsIn`, `Union`
        // and friends read.
        let sym = u32::from_le_bytes([payload[1], payload[2], payload[3], payload[4]]);
        let mut p = payload.to_vec();
        for &a in &g.symbol(SymbolId(sym)).attrs {
            if g.attr(a).class != AttrClass::Intrinsic {
                p = with_value(&p, a.0, &encoded(&Value::Int(7)));
            }
        }
        out.push(("non-set values in attribute slots".into(), p));
    } else {
        out.push((
            "unknown production id".into(),
            with_id(payload, 0xffff_ff00),
        ));
    }
    out.push((
        "attribute id past every table".into(),
        with_value(payload, u32::MAX, &encoded(&Value::Int(1))),
    ));
    // Lists nested far past `Value::decode`'s depth bound: 50 KB that
    // overflow a worker thread's stack under an unbounded recursive
    // decoder.
    let mut deep = [4u8, 1, 0, 0, 0].repeat(10_000);
    deep.extend_from_slice(&[4, 0, 0, 0, 0]);
    out.push((
        "lists nested 10,001 deep".into(),
        with_value(payload, 0, &deep),
    ));
    let mut trailing = payload.to_vec();
    trailing.extend_from_slice(&[0, 0, 0]);
    out.push(("trailing bytes after the record".into(), trailing));
    out
}

#[test]
fn generated_evaluators_reject_hostile_payloads_in_valid_frames() {
    for (name, source, budget, eval) in evaluators() {
        let analysis = analyze(source).expect("bundled grammar analyzes").analysis;
        let valid = valid_input(&analysis, budget);
        let want = eval(&valid).unwrap_or_else(|e| panic!("{}: valid input fails: {}", name, e));
        let records = payloads(&valid);
        assert_eq!(frame(&records), valid, "{}: the test framer drifted", name);
        for (i, payload) in records.iter().enumerate() {
            for (what, hostile) in mutations(&analysis, payload) {
                let mut file = records.clone();
                file[i] = hostile;
                match acceptable(eval, &frame(&file), &want) {
                    None => panic!("{}: record {}: panicked on {}", name, i, what),
                    Some(ok) => assert!(ok, "{}: record {}: wrong output on {}", name, i, what),
                }
            }
        }
    }
}
