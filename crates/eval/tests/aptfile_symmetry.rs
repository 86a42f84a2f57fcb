//! Direction-symmetry tests for the intermediate APT files.
//!
//! The paradigm's load-bearing trick is that one byte stream serves both
//! directions: "if the output file of a left-to-right pass is read
//! backwards it can be the input file for a right-to-left pass" (§II).
//! These tests pin the symmetry down on both backings (disk files and
//! the RAM "virtual memory" buffers), including the degenerate shapes a
//! unit test is likely to miss: records with no attribute values at all,
//! and a record carrying the u16-maximum 65535 attribute instances.

use linguist_ag::ids::{AttrId, ProdId, SymbolId};
use linguist_eval::aptfile::{AptReader, AptWriter, ReadDir, Record, RecordBody, TempAptDir};
use linguist_eval::value::Value;
use std::sync::Arc;

fn sample_records() -> Vec<Record> {
    (0..25u32)
        .map(|i| Record {
            body: if i % 2 == 0 {
                RecordBody::Sym(SymbolId(i))
            } else {
                RecordBody::Prod(ProdId(i))
            },
            values: (0..(i % 5))
                .map(|k| (AttrId(k), Value::Int((i * 10 + k) as i64)))
                .collect(),
        })
        .collect()
}

/// Write `recs`, then read them back in `dir` — on disk.
fn disk_round_trip(recs: &[Record], dir: ReadDir) -> Vec<Record> {
    let tmp = TempAptDir::new().unwrap();
    let path = tmp.boundary(0);
    let mut w = AptWriter::create(&path).unwrap();
    for r in recs {
        w.write(r).unwrap();
    }
    w.finish().unwrap();
    let mut rd = AptReader::open(&path, dir).unwrap();
    let mut out = Vec::new();
    while let Some(rec) = rd.next().unwrap() {
        out.push(rec);
    }
    out
}

/// Write `recs`, then read them back in `dir` — in memory, through the
/// owned writer and the sealed shared reader.
fn mem_round_trip(recs: &[Record], dir: ReadDir) -> Vec<Record> {
    let mut w = AptWriter::create_owned();
    for r in recs {
        w.write(r).unwrap();
    }
    let (_, buf) = w.finish_owned().unwrap();
    let mut rd = AptReader::open_shared(Arc::new(buf), dir).unwrap();
    let mut out = Vec::new();
    while let Some(rec) = rd.next().unwrap() {
        out.push(rec);
    }
    out
}

#[test]
fn forward_then_backward_is_identity_on_disk() {
    let recs = sample_records();
    assert_eq!(disk_round_trip(&recs, ReadDir::Forward), recs);
    let mut rev = disk_round_trip(&recs, ReadDir::Backward);
    rev.reverse();
    assert_eq!(rev, recs);
}

#[test]
fn forward_then_backward_is_identity_in_memory() {
    let recs = sample_records();
    assert_eq!(mem_round_trip(&recs, ReadDir::Forward), recs);
    let mut rev = mem_round_trip(&recs, ReadDir::Backward);
    rev.reverse();
    assert_eq!(rev, recs);
}

#[test]
fn disk_and_memory_produce_identical_bytes() {
    let recs = sample_records();
    let tmp = TempAptDir::new().unwrap();
    let path = tmp.boundary(0);
    let mut w = AptWriter::create(&path).unwrap();
    for r in &recs {
        w.write(r).unwrap();
    }
    let (disk_bytes, disk_records) = w.finish().unwrap();

    let mut w = AptWriter::create_owned();
    for r in &recs {
        w.write(r).unwrap();
    }
    let (summary, buf) = w.finish_owned().unwrap();

    assert_eq!(disk_bytes, summary.bytes);
    assert_eq!(disk_records, summary.records);
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(on_disk, buf, "identical framing regardless of backing");
}

#[test]
fn empty_payload_records_round_trip_both_directions() {
    // A record with zero attribute values still needs its full frame —
    // the decoder and both readers must not special-case it away.
    let recs: Vec<Record> = (0..8u32)
        .map(|i| Record {
            body: RecordBody::Sym(SymbolId(i)),
            values: Vec::new(),
        })
        .collect();
    for rec in &recs {
        assert_eq!(Record::decode(&rec.encode()).unwrap(), *rec);
    }
    assert_eq!(disk_round_trip(&recs, ReadDir::Forward), recs);
    let mut rev = disk_round_trip(&recs, ReadDir::Backward);
    rev.reverse();
    assert_eq!(rev, recs);
    assert_eq!(mem_round_trip(&recs, ReadDir::Forward), recs);
    let mut rev = mem_round_trip(&recs, ReadDir::Backward);
    rev.reverse();
    assert_eq!(rev, recs);
}

#[test]
fn max_u16_attribute_count_round_trips() {
    // The record header stores the value count in a u16; 65535 is the
    // largest representable record and must survive both directions.
    let big = Record {
        body: RecordBody::Prod(ProdId(7)),
        values: (0..u16::MAX as u32)
            .map(|k| (AttrId(k), Value::Int(k as i64)))
            .collect(),
    };
    assert_eq!(big.values.len(), 65535);
    let decoded = Record::decode(&big.encode()).unwrap();
    assert_eq!(decoded, big);

    let recs = vec![big];
    assert_eq!(mem_round_trip(&recs, ReadDir::Forward), recs);
    assert_eq!(mem_round_trip(&recs, ReadDir::Backward), recs);
}

#[test]
fn mixed_sizes_interleave_cleanly_backward() {
    // Alternate empty and fat records so backward frame arithmetic has to
    // handle consecutive frames of very different lengths.
    let recs: Vec<Record> = (0..12u32)
        .map(|i| Record {
            body: RecordBody::Sym(SymbolId(i)),
            values: if i % 2 == 0 {
                Vec::new()
            } else {
                (0..200u32)
                    .map(|k| (AttrId(k), Value::str(&format!("attr-{i}-{k}"))))
                    .collect()
            },
        })
        .collect();
    let mut rev = disk_round_trip(&recs, ReadDir::Backward);
    rev.reverse();
    assert_eq!(rev, recs);
    let mut rev = mem_round_trip(&recs, ReadDir::Backward);
    rev.reverse();
    assert_eq!(rev, recs);
}
