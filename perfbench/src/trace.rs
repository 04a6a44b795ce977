//! Client-side spans and the per-layer ledger built from them.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions, kept in memory, and written out when the run ends.
//! Every span carries the id of the request it belongs to and the id of
//! the span that caused it, so one request's spans form one tree.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Process-wide span id source; ids are unique across lanes and phases.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// The request this span belongs to.
    pub request: u64,
    /// The span that caused this one; `None` for a request's root.
    pub parent: Option<u64>,
    /// Layer boundary name (`net.rtt`, `rwr.solve_block`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span sink. One per thread; merge with [`Recorder::absorb`].
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing spans relative to `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval and returns its span id.
    pub fn record(
        &mut self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            request,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Opens a span whose children are recorded before it ends; close it
    /// with [`Recorder::close`].
    pub fn open(&mut self, request: u64, parent: Option<u64>, name: &'static str) -> u64 {
        let now = Instant::now();
        self.record(request, parent, name, now, now)
    }

    /// Sets the end of an open span to now.
    pub fn close(&mut self, id: u64) {
        let end = self.ns(Instant::now());
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_ns = end.max(span.start_ns);
        }
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON line per span.
    pub fn dump(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"request\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.request,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it its
/// children cover (children of one span never overlap each other here).
pub fn self_times_ms(spans: &[Span]) -> HashMap<u64, f64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for child in spans {
        let Some(parent) = child.parent.and_then(|p| by_id.get(&p)) else {
            continue;
        };
        let lo = child.start_ns.max(parent.start_ns);
        let hi = child.end_ns.min(parent.end_ns);
        *covered.entry(parent.id).or_default() += hi.saturating_sub(lo);
    }
    spans
        .iter()
        .map(|s| {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            (s.id, own as f64 / 1e6)
        })
        .collect()
}

/// Where a workload's round trips go: per-layer self time summed over a
/// set of requests, as a share of the summed round trip.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Requests the ledger covers.
    pub requests: usize,
    /// Mean round trip per request, milliseconds.
    pub round_trip_ms: f64,
    /// `(layer, mean self ms per request)`, in the order asked for.
    pub layers: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Builds the ledger for `requests`: the round trip is the duration
    /// of each request's `round_trip` span; each layer is the summed self
    /// time of the request's spans with that name.
    pub fn build(
        spans: &[Span],
        requests: &[u64],
        round_trip: &str,
        layers: &[&'static str],
    ) -> Ledger {
        let self_ms = self_times_ms(spans);
        let wanted: std::collections::HashSet<u64> = requests.iter().copied().collect();
        let mut rt = 0.0;
        let mut sums = vec![0.0; layers.len()];
        for s in spans.iter().filter(|s| wanted.contains(&s.request)) {
            if s.name == round_trip {
                rt += s.ms();
            }
            if let Some(i) = layers.iter().position(|&l| l == s.name) {
                sums[i] += self_ms[&s.id];
            }
        }
        let n = requests.len().max(1) as f64;
        Ledger {
            requests: requests.len(),
            round_trip_ms: rt / n,
            layers: layers
                .iter()
                .zip(sums)
                .map(|(&l, sum)| (l, sum / n))
                .collect(),
        }
    }

    /// Share of the round trip no layer span accounts for.
    pub fn unattributed_frac(&self) -> f64 {
        if self.round_trip_ms <= 0.0 {
            return 0.0;
        }
        let attributed: f64 = self.layers.iter().map(|(_, ms)| ms).sum();
        (self.round_trip_ms - attributed) / self.round_trip_ms
    }

    /// The ledger as a text table.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ledger [{workload}]: {} requests, mean round trip {:.4} ms",
            self.requests, self.round_trip_ms
        );
        let _ = writeln!(
            out,
            "  {:<22} {:>12} {:>9}",
            "layer", "self ms/req", "share"
        );
        let share = |ms: f64| {
            if self.round_trip_ms > 0.0 {
                100.0 * ms / self.round_trip_ms
            } else {
                0.0
            }
        };
        for &(layer, ms) in &self.layers {
            let _ = writeln!(out, "  {layer:<22} {ms:>12.4} {:>8.1}%", share(ms));
        }
        let rest = self.unattributed_frac() * self.round_trip_ms;
        let _ = writeln!(
            out,
            "  {:<22} {rest:>12.4} {:>8.1}%",
            "unattributed",
            share(rest)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_ledger_sums_to_round_trip() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut rec = Recorder::new(t0);
        let root = rec.record(7, None, "net.rtt", at(0), at(10));
        let svc = rec.record(7, Some(root), "replay", at(20), at(28));
        rec.record(7, Some(svc), "extract", at(21), at(27));
        let self_ms = self_times_ms(rec.spans());
        assert_eq!(self_ms[&svc], 2.0);
        let ledger = Ledger::build(rec.spans(), &[7], "net.rtt", &["replay", "extract"]);
        assert_eq!(ledger.round_trip_ms, 10.0);
        assert!((ledger.unattributed_frac() - 0.2).abs() < 1e-12);
        assert!(ledger.render("w").contains("unattributed"));
    }
}
