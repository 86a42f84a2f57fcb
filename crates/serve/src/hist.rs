//! Log-linear latency histogram for the `Stats` endpoint.
//!
//! Quantiles without dependencies and without unbounded memory: one
//! atomic counter per bucket, in HdrHistogram's layout. Each power-of-two
//! range of microseconds is split into 16 equal sub-buckets (values
//! under 16 µs get a bucket each). Recording is a single relaxed
//! `fetch_add` (safe from every worker concurrently); reading walks 592
//! counters. A reported quantile is the *upper edge* of the bucket the
//! target sample fell into, so values are conservative (never
//! under-reported) and at most 1/16 = 6.25% above the true latency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per power of two, as a bit count: `2^4 = 16`.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// The top bucket ends at `2^40` µs ≈ 12.7 days, which comfortably
/// covers any request this service will ever answer.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = SUB + (MAX_EXP - SUB_BITS) as usize * SUB;

/// A concurrent log-linear histogram of durations.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Values under 16 µs have a bucket each. A value in `[2^e, 2^(e+1))`
/// for `e >= 4` falls into one of 16 sub-buckets of width `2^(e-4)`.
fn bucket_of(us: u64) -> usize {
    if us < SUB as u64 {
        return us as usize;
    }
    let e = 63 - us.leading_zeros();
    let sub = (us >> (e - SUB_BITS)) as usize - SUB;
    (SUB + (e - SUB_BITS) as usize * SUB + sub).min(BUCKETS - 1)
}

/// Exclusive upper edge of bucket `i`, in microseconds.
fn upper_edge(i: usize) -> u64 {
    if i < SUB {
        return i as u64 + 1;
    }
    let (octave, sub) = ((i - SUB) / SUB, (i - SUB) % SUB);
    ((SUB + sub + 1) as u64) << octave
}

impl LatencyHistogram {
    /// A fresh zeroed histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one sample.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as an upper bound, or `None`
    /// when nothing has been recorded yet.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        // 1-based rank of the sample we want, clamped into range.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Duration::from_micros(upper_edge(i)));
            }
        }
        unreachable!("rank is bounded by the total")
    }

    /// Convenience pair for the stats report: `(p50, p99)`.
    pub fn p50_p99(&self) -> (Option<Duration>, Option<Duration>) {
        (self.quantile(0.50), self.quantile(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn buckets_are_log_linear() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(15), 15);
        // [16, 32) is split 16 ways, width 1; [512, 1024) 16 ways, width 32.
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(31), 31);
        assert_eq!(bucket_of(32), 32);
        assert_eq!(bucket_of(33), 32);
        assert_eq!(bucket_of(800), bucket_of(831));
        assert_eq!(bucket_of(832), bucket_of(800) + 1);
        assert_eq!(upper_edge(bucket_of(800)), 832);
        assert_eq!(upper_edge(bucket_of(1023)), 1024);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(upper_edge(BUCKETS - 1), 1 << MAX_EXP);
    }

    #[test]
    fn reported_edges_are_upper_bounds_within_a_sixteenth() {
        let values = (0..70_000u64).chain((20..40).map(|e| (1u64 << e) + 12_345));
        for us in values {
            let edge = upper_edge(bucket_of(us));
            assert!(edge > us, "{} µs reported as {}", us, edge);
            assert!(
                (edge - us) * 16 <= us.max(16),
                "{} µs reported as {}: more than 6.25% high",
                us,
                edge
            );
        }
    }

    #[test]
    fn p50_of_an_even_spread_is_within_a_sixteenth() {
        // 1,000 samples spread evenly over 600–1,000 µs: the true p50 is
        // 800 µs. Power-of-two buckets reported 1,024.
        let h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(Duration::from_micros(600 + i * 400 / 1000));
        }
        let p50 = h.quantile(0.5).unwrap().as_micros() as f64;
        assert!(
            (p50 - 800.0).abs() <= 800.0 * 0.0625,
            "p50 {} µs is more than 6.25% from 800 µs",
            p50
        );
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let h = LatencyHistogram::new();
        for ms in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // 1 ms lands in (512, 1024] µs; 100 ms in (65.5, 131.1] ms.
        assert!(p50 >= Duration::from_millis(1) && p50 <= Duration::from_millis(2));
        assert!(p99 >= Duration::from_millis(100) && p99 <= Duration::from_millis(200));
        assert!(h.quantile(0.0).unwrap() <= p50);
        assert_eq!(h.quantile(1.0).unwrap(), p99);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000 {
                        h.record(Duration::from_micros(i));
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }
}
