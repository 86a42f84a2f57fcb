//! Span tracing from the benchmark's side of each layer call.
//!
//! A traced run records one span per layer call: name, start, end,
//! parent span and unit id. Spans stay in memory and are written out
//! once, when the run ends. A layer's self time is its span's duration
//! minus the durations of its child spans; the self time of the
//! per-unit root span ([`UNIT`]) is the part no named layer covers.

use linguist_support::json::{escape, number};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Name of the root span of each timed unit.
pub const UNIT: &str = "unit";

#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    unit: u64,
    count: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, unit: u64) -> SpanId {
        let now = self.origin.elapsed();
        self.push(name, parent, unit, now, now, 1)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end = self.origin.elapsed();
    }

    /// Record a span measured elsewhere: `count` calls totalling `dur`,
    /// starting at `start` (used for per-call work summed per unit, and
    /// for durations the program reports about itself).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u64,
        start: Instant,
        dur: Duration,
        count: u64,
    ) -> SpanId {
        let s = start.saturating_duration_since(self.origin);
        self.push(name, parent, unit, s, s + dur, count)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u64,
        start: Duration,
        end: Duration,
        count: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: parent.map(|p| p.0),
            unit,
            count,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Self time and call count per layer.
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += dur_ns(s);
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        let mut units = 0;
        for (i, s) in self.spans.iter().enumerate() {
            let l = layers.entry(s.name).or_default();
            l.self_ns += dur_ns(s) - child_ns[i];
            l.count += s.count;
            if s.name == UNIT {
                units += 1;
            }
        }
        Summary { layers, units }
    }

    /// Write every span as one JSON document to `path`.
    pub fn write(&self, path: &Path, stamp: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"stamp\":{},\"spans\":[", stamp)?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{}{{\"id\":{},\"name\":{},\"start_us\":{},\"end_us\":{},\"parent\":{},\"unit\":{},\"count\":{}}}",
                sep,
                i,
                escape(s.name),
                number(s.start.as_secs_f64() * 1e6),
                number(s.end.as_secs_f64() * 1e6),
                parent,
                s.unit,
                s.count
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

fn dur_ns(s: &Span) -> f64 {
    s.end.saturating_sub(s.start).as_nanos() as f64
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub self_ns: f64,
    pub count: u64,
}

#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub layers: BTreeMap<&'static str, Layer>,
    pub units: u64,
}

impl Summary {
    /// Mean self time of `layer` per unit, in milliseconds.
    pub fn ms_per_unit(&self, layer: &str) -> f64 {
        let ns = self.layers.get(layer).map_or(0.0, |l| l.self_ns);
        ns / 1e6 / self.units.max(1) as f64
    }

    /// Move `ns` of self time from `from` to `to`: how layers measured
    /// by difference (same tree, one feature off) are carved out of the
    /// span that contained them.
    pub fn reattribute(&mut self, from: &'static str, to: &'static str, ns: f64) {
        self.layers.entry(from).or_default().self_ns -= ns;
        self.layers.entry(to).or_default().self_ns += ns;
    }

    /// Self time of every named layer, per unit (ms).
    pub fn attributed_ms_per_unit(&self) -> f64 {
        self.layers
            .keys()
            .filter(|k| **k != UNIT)
            .map(|k| self.ms_per_unit(k))
            .sum()
    }

    /// The layer with the largest self time.
    pub fn dominant_layer(&self) -> &'static str {
        self.layers
            .iter()
            .filter(|(k, _)| **k != UNIT)
            .max_by(|a, b| a.1.self_ns.total_cmp(&b.1.self_ns))
            .map_or("none", |(k, _)| k)
    }

    /// The module (first name segment) with the largest summed self time.
    pub fn dominant_module(&self) -> String {
        let mut modules: BTreeMap<&str, f64> = BTreeMap::new();
        for (k, l) in self.layers.iter().filter(|(k, _)| **k != UNIT) {
            let module = k.split('.').next().unwrap_or(k);
            *modules.entry(module).or_default() += l.self_ns;
        }
        modules
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("none".to_string(), |(k, _)| k.to_string())
    }

    /// Human-readable table: self time per unit, share and call count.
    pub fn table(&self) -> String {
        let total: f64 = self.layers.values().map(|l| l.self_ns).sum();
        let mut rows: Vec<_> = self.layers.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.total_cmp(&a.1.self_ns));
        let mut out = String::new();
        for (name, l) in rows {
            let label = if *name == UNIT {
                "(unattributed)"
            } else {
                name
            };
            out.push_str(&format!(
                "  {:<24} {:>10.4} ms/unit {:>6.1}% {:>10} calls\n",
                label,
                self.ms_per_unit(name),
                100.0 * l.self_ns / total.max(1.0),
                l.count
            ));
        }
        out
    }
}
