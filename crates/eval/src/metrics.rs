//! The evaluation profiler: per-pass I/O accounting and work counters.
//!
//! The paper's measurements are all *pass-level*: how many alternating
//! passes a grammar needs, how much APT traffic each pass moves through
//! the two intermediate files, and how much semantic work runs per pass.
//! [`EvalMetrics`] is that table, produced live by the machine when
//! [`EvalOptions::profile`](crate::machine::EvalOptions::profile) is on.
//!
//! The counters are atomics ([`IoCounters`]) shared between the machine
//! and the [`AptReader`](crate::aptfile::AptReader) /
//! [`AptWriter`](crate::aptfile::AptWriter) it drives, so one sink can in
//! principle be observed while a pass is still running (and so the batch
//! evaluator can aggregate without any locking). With profiling off, no
//! sink is allocated and the readers/writers skip a single `Option`
//! check per record — near-zero overhead on the unprofiled hot path.

use crate::aptfile::ReadDir;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A pair of record/byte tallies, bumped atomically by the APT file layer.
#[derive(Debug, Default)]
pub struct IoCounters {
    records: AtomicU64,
    bytes: AtomicU64,
}

impl IoCounters {
    /// A fresh zeroed counter pair behind an `Arc`, ready to hand to an
    /// `AptReader`/`AptWriter`.
    pub fn shared() -> Arc<IoCounters> {
        Arc::new(IoCounters::default())
    }

    /// Record one transferred record of `bytes` framed bytes.
    #[inline]
    pub fn add_record(&self, bytes: u64) {
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Current `(records, bytes)` totals.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.records.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// The live counter set the machine carries through one pass.
#[derive(Debug)]
pub struct PassProbe {
    /// Traffic read from the pass's input intermediate file.
    pub read: Arc<IoCounters>,
    /// Traffic written to the pass's output intermediate file.
    pub written: Arc<IoCounters>,
    /// Attribute instances defined (rule targets assigned) this pass.
    pub attrs_evaluated: AtomicU64,
    /// External semantic-function invocations this pass.
    pub funcs_invoked: AtomicU64,
}

impl PassProbe {
    /// Fresh zeroed probe.
    pub fn new() -> PassProbe {
        PassProbe {
            read: IoCounters::shared(),
            written: IoCounters::shared(),
            attrs_evaluated: AtomicU64::new(0),
            funcs_invoked: AtomicU64::new(0),
        }
    }

    /// Freeze the probe into the per-pass report row.
    pub fn finish(&self, pass: u16, direction: ReadDir, rules_evaluated: u64) -> PassIo {
        let (records_read, bytes_read) = self.read.snapshot();
        let (records_written, bytes_written) = self.written.snapshot();
        PassIo {
            pass,
            direction,
            input_boundary: pass - 1,
            output_boundary: pass,
            records_read,
            bytes_read,
            records_written,
            bytes_written,
            attrs_evaluated: self.attrs_evaluated.load(Ordering::Relaxed),
            funcs_invoked: self.funcs_invoked.load(Ordering::Relaxed),
            rules_evaluated,
        }
    }
}

impl Default for PassProbe {
    fn default() -> PassProbe {
        PassProbe::new()
    }
}

/// One row of the pass-level profile: everything pass `k` did to the two
/// intermediate files plus the semantic work it performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassIo {
    /// Pass number (1-based, as in the paper).
    pub pass: u16,
    /// Direction the input file was traversed.
    pub direction: ReadDir,
    /// Boundary index of the input intermediate file (`pass - 1`).
    pub input_boundary: u16,
    /// Boundary index of the output intermediate file (`pass`).
    pub output_boundary: u16,
    /// Records read from the input file.
    pub records_read: u64,
    /// Framed bytes read from the input file.
    pub bytes_read: u64,
    /// Records written to the output file.
    pub records_written: u64,
    /// Framed bytes written to the output file.
    pub bytes_written: u64,
    /// Attribute instances defined during the pass.
    pub attrs_evaluated: u64,
    /// External semantic-function calls during the pass.
    pub funcs_invoked: u64,
    /// Semantic functions (rules) evaluated during the pass.
    pub rules_evaluated: u64,
}

impl PassIo {
    fn add(&mut self, other: &PassIo) {
        self.records_read += other.records_read;
        self.bytes_read += other.bytes_read;
        self.records_written += other.records_written;
        self.bytes_written += other.bytes_written;
        self.attrs_evaluated += other.attrs_evaluated;
        self.funcs_invoked += other.funcs_invoked;
        self.rules_evaluated += other.rules_evaluated;
    }
}

/// The full pass-level profile of one evaluation (or, aggregated, of a
/// whole batch: pass *k* of every job lands in row *k*).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalMetrics {
    /// Records written to the parser-built boundary-0 file.
    pub initial_records: u64,
    /// Framed bytes written to the parser-built boundary-0 file.
    pub initial_bytes: u64,
    /// One row per alternating pass.
    pub passes: Vec<PassIo>,
}

impl EvalMetrics {
    /// Total framed bytes moved through intermediate files, including the
    /// initial emission.
    pub fn total_io_bytes(&self) -> u64 {
        self.initial_bytes
            + self
                .passes
                .iter()
                .map(|p| p.bytes_read + p.bytes_written)
                .sum::<u64>()
    }

    /// Total attribute instances defined across all passes.
    pub fn total_attrs_evaluated(&self) -> u64 {
        self.passes.iter().map(|p| p.attrs_evaluated).sum()
    }

    /// Total external semantic-function invocations across all passes.
    pub fn total_funcs_invoked(&self) -> u64 {
        self.passes.iter().map(|p| p.funcs_invoked).sum()
    }

    /// Fold another profile into this one, row by row (the batch
    /// evaluator's aggregation). Directions and boundary indices must
    /// agree where rows overlap, which they do for jobs evaluated under
    /// one analysis; the first profile wins those fields.
    pub fn merge(&mut self, other: &EvalMetrics) {
        self.initial_records += other.initial_records;
        self.initial_bytes += other.initial_bytes;
        for row in &other.passes {
            match self.passes.iter_mut().find(|r| r.pass == row.pass) {
                Some(mine) => mine.add(row),
                None => self.passes.push(row.clone()),
            }
        }
        self.passes.sort_by_key(|r| r.pass);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pass: u16, n: u64) -> PassIo {
        PassIo {
            pass,
            direction: ReadDir::Backward,
            input_boundary: pass - 1,
            output_boundary: pass,
            records_read: n,
            bytes_read: 10 * n,
            records_written: n,
            bytes_written: 10 * n,
            attrs_evaluated: 2 * n,
            funcs_invoked: n / 2,
            rules_evaluated: n,
        }
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = IoCounters::shared();
        c.add_record(16);
        c.add_record(24);
        assert_eq!(c.snapshot(), (2, 40));
    }

    #[test]
    fn probe_freezes_into_pass_row() {
        let p = PassProbe::new();
        p.read.add_record(12);
        p.written.add_record(20);
        p.written.add_record(20);
        p.attrs_evaluated.fetch_add(3, Ordering::Relaxed);
        let row = p.finish(2, ReadDir::Forward, 5);
        assert_eq!(row.pass, 2);
        assert_eq!(row.input_boundary, 1);
        assert_eq!(row.output_boundary, 2);
        assert_eq!((row.records_read, row.bytes_read), (1, 12));
        assert_eq!((row.records_written, row.bytes_written), (2, 40));
        assert_eq!(row.attrs_evaluated, 3);
        assert_eq!(row.rules_evaluated, 5);
    }

    #[test]
    fn merge_sums_matching_passes_and_keeps_extras() {
        let mut a = EvalMetrics {
            initial_records: 5,
            initial_bytes: 50,
            passes: vec![row(1, 10)],
        };
        let b = EvalMetrics {
            initial_records: 3,
            initial_bytes: 30,
            passes: vec![row(1, 4), row(2, 7)],
        };
        a.merge(&b);
        assert_eq!(a.initial_records, 8);
        assert_eq!(a.passes.len(), 2);
        assert_eq!(a.passes[0].records_read, 14);
        assert_eq!(a.passes[1].records_read, 7);
        assert_eq!(a.total_io_bytes(), 80 + 2 * 140 + 2 * 70);
    }
}
