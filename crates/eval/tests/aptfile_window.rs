//! The file reader's window.
//!
//! A pass reads a boundary file through one fixed 64 KiB window that
//! refills towards the read direction: forwards it starts at the frame,
//! backwards it ends at the frame's end, and a frame larger than the
//! window is read whole. These tests pin the reader's memory bound on
//! files far larger than the window, and show that corruption in a frame
//! straddling a window edge, or in a frame larger than the window, gives
//! the same typed error in both directions as anywhere else in the file.

use linguist_ag::ids::{AttrId, ProdId, SymbolId};
use linguist_eval::aptfile::{
    AptError, AptReader, AptWriter, HeaderError, ReadDir, Record, RecordBody, TempAptDir,
};
use linguist_eval::crc;
use linguist_eval::value::Value;
use std::path::Path;

/// The reader's window (`aptfile::WINDOW`).
const WINDOW: u64 = 64 * 1024;
/// Header length of the v2 format.
const HEADER_LEN: u64 = 28;
/// Frame bytes around a payload: lead length, CRC, trail length.
const FRAME_OVERHEAD: u64 = 12;

/// Bytes `r` occupies in a file.
fn framed(r: &Record) -> u64 {
    r.encode().len() as u64 + FRAME_OVERHEAD
}

/// Record `i`, carrying a string of `pad` bytes.
fn rec(i: u32, pad: usize) -> Record {
    Record {
        body: if i.is_multiple_of(2) {
            RecordBody::Sym(SymbolId(i))
        } else {
            RecordBody::Prod(ProdId(i))
        },
        values: vec![
            (AttrId(0), Value::Int(i as i64)),
            (AttrId(1), Value::str(&"x".repeat(pad))),
        ],
    }
}

/// Write `recs` to `path` and return each frame's `[start, end)` offsets.
fn write(path: &Path, recs: &[Record]) -> Vec<(u64, u64)> {
    let mut w = AptWriter::create(path).unwrap();
    let mut frames = Vec::new();
    let mut at = HEADER_LEN;
    for r in recs {
        w.write(r).unwrap();
        let end = at + framed(r);
        frames.push((at, end));
        at = end;
    }
    let (bytes, _) = w.finish().unwrap();
    assert_eq!(
        HEADER_LEN + bytes,
        at,
        "a frame is its payload plus 12 bytes"
    );
    frames
}

#[test]
fn reader_memory_stays_within_window_plus_largest_frame() {
    // Mostly small frames of varying size, so frames straddle many window
    // edges, with a frame of twice the window every 5,000 records.
    let recs: Vec<Record> = (0..24_000u32)
        .map(|i| {
            let pad = if i % 5_000 == 2_500 {
                2 * WINDOW as usize
            } else {
                (i as usize * 37) % 300
            };
            rec(i, pad)
        })
        .collect();
    let largest = recs.iter().map(framed).max().unwrap() as usize;
    let tmp = TempAptDir::new().unwrap();
    let path = tmp.boundary(0);
    write(&path, &recs);
    let len = std::fs::metadata(&path).unwrap().len();
    assert!(
        len >= 64 * WINDOW,
        "file of {} bytes is under 64 windows",
        len
    );

    let bound = WINDOW as usize + largest;
    for dir in [ReadDir::Forward, ReadDir::Backward] {
        let mut r = AptReader::open(&path, dir).unwrap();
        let mut served = 0usize;
        let mut peak = r.buffer_capacity();
        while let Some(got) = r.next().unwrap() {
            let i = match dir {
                ReadDir::Forward => served,
                ReadDir::Backward => recs.len() - 1 - served,
            };
            assert_eq!(got, recs[i], "{:?} record {} differs", dir, i);
            assert_eq!(
                r.last_frame_bytes(),
                framed(&recs[i]),
                "{:?} record {}",
                dir,
                i
            );
            served += 1;
            peak = peak.max(r.buffer_capacity());
            assert!(
                peak <= bound,
                "{:?}: {} buffered bytes exceed window + largest frame ({})",
                dir,
                peak,
                bound
            );
        }
        assert_eq!(served, recs.len());
        // The accessor counts the window: a file this large fills it.
        assert!(
            peak >= WINDOW as usize,
            "{:?}: peak {} below the window",
            dir,
            peak
        );
    }
}

/// A typed error, reduced to what a corruption case pins.
#[derive(Debug, PartialEq)]
enum Typed {
    Frame { at: u64 },
    Checksum { at: u64 },
    LengthMismatch,
}

/// Read `path` in `dir` to its first error, checking that every record
/// served before it is the pristine one from the reading end.
fn first_error(path: &Path, dir: ReadDir, recs: &[Record]) -> Typed {
    let err = match AptReader::open(path, dir) {
        Err(e) => e,
        Ok(mut r) => {
            let mut served = 0usize;
            loop {
                match r.next() {
                    Ok(Some(got)) => {
                        let i = match dir {
                            ReadDir::Forward => served,
                            ReadDir::Backward => recs.len() - 1 - served,
                        };
                        assert_eq!(got, recs[i], "{:?} served a corrupt record", dir);
                        served += 1;
                    }
                    Ok(None) => panic!("{:?} read the corrupt file clean", dir),
                    Err(e) => break e,
                }
            }
        }
    };
    assert!(
        err.to_string().contains("boundary_"),
        "error lost its path: {}",
        err
    );
    match err.root() {
        AptError::Frame { at } => Typed::Frame { at: *at },
        AptError::Checksum { at, .. } => Typed::Checksum { at: *at },
        AptError::Header(HeaderError::LengthMismatch { .. }) => Typed::LengthMismatch,
        other => panic!("{:?}: untyped {:?}", dir, other),
    }
}

/// A v2 header promising `records` records in `bytes` body bytes.
fn header(records: u64, bytes: u64) -> Vec<u8> {
    let mut h = b"APT1".to_vec();
    h.extend_from_slice(&2u16.to_le_bytes());
    h.extend_from_slice(&[0, 0]);
    h.extend_from_slice(&records.to_le_bytes());
    h.extend_from_slice(&bytes.to_le_bytes());
    let c = crc::crc32(&h);
    h.extend_from_slice(&c.to_le_bytes());
    h
}

/// Corrupt frame `i`, at `[s, e)`, of a pristine file in each way, and check
/// that reading in `dir` stops with the error the format promises: a
/// length flip on either side is a `Frame` error at the reader's position
/// (the frame's start forwards, its end backwards), a CRC flip is a
/// `Checksum` error at the frame's start, a truncation is rejected at
/// open, and a truncation whose header is resealed to match is a `Frame`
/// error at the frame forwards and at the cut backwards.
fn check_frame(
    path: &Path,
    pristine: &[u8],
    recs: &[Record],
    i: usize,
    (s, e): (u64, u64),
    dir: ReadDir,
) {
    let at_reader = match dir {
        ReadDir::Forward => s,
        ReadDir::Backward => e,
    };
    let flip = |at: u64| {
        let mut data = pristine.to_vec();
        data[at as usize] ^= 0x01;
        data
    };
    // The cut leaves frames `0..i` whole and frame `i` partial.
    let cut = s + (e - s) / 2;
    let mut resealed = header(i as u64 + 1, cut - HEADER_LEN);
    resealed.extend_from_slice(&pristine[HEADER_LEN as usize..cut as usize]);
    let cases = [
        ("lead length flip", flip(s), Typed::Frame { at: at_reader }),
        (
            "trail length flip",
            flip(e - 4),
            Typed::Frame { at: at_reader },
        ),
        ("CRC flip", flip(e - 8), Typed::Checksum { at: s }),
        (
            "truncation",
            pristine[..cut as usize].to_vec(),
            Typed::LengthMismatch,
        ),
        (
            "resealed truncation",
            resealed,
            Typed::Frame {
                at: match dir {
                    ReadDir::Forward => s,
                    ReadDir::Backward => cut,
                },
            },
        ),
    ];
    for (what, data, want) in cases {
        std::fs::write(path, &data).unwrap();
        assert_eq!(
            first_error(path, dir, recs),
            want,
            "{} in frame [{}, {}) read {:?}",
            what,
            s,
            e,
            dir
        );
    }
}

#[test]
fn corruption_at_window_edges_and_in_oversized_frames_is_typed() {
    // About 100 KiB of small frames, one frame of 1.5 windows, and another
    // 100 KiB of small frames. A forward reader's first window is
    // `[0, WINDOW)` and a backward reader's `[len - WINDOW, len)`, so the
    // frames holding those offsets straddle an edge in each direction.
    let mut recs: Vec<Record> = (0..200u32).map(|i| rec(i, 480 + i as usize % 40)).collect();
    recs.push(rec(200, 3 * WINDOW as usize / 2));
    recs.extend((201..400u32).map(|i| rec(i, 480 + i as usize % 40)));
    let tmp = TempAptDir::new().unwrap();
    let path = tmp.boundary(1);
    let frames = write(&path, &recs);
    let pristine = std::fs::read(&path).unwrap();
    let len = pristine.len() as u64;

    let straddling = |edge: u64| {
        frames
            .iter()
            .position(|(s, e)| *s < edge && edge < *e)
            .expect("a frame straddles the edge")
    };
    let big = 200;
    assert!(
        frames[big].1 - frames[big].0 > WINDOW,
        "the big frame must exceed the window"
    );
    for (i, dir) in [
        (straddling(WINDOW), ReadDir::Forward),
        (straddling(len - WINDOW), ReadDir::Backward),
        (big, ReadDir::Forward),
        (big, ReadDir::Backward),
    ] {
        check_frame(&path, &pristine, &recs, i, frames[i], dir);
    }
}
