//! In-memory span recorder for the traced step replica.
//!
//! Each rank owns one [`Recorder`]. A `step` span is opened per training
//! step and child spans are recorded around each call into a layer; the
//! entry time of every collective call is stamped separately so the wait
//! each rank spends for the slowest one can be computed after the run.
//! Nothing is written while the run is timed: spans stay in memory until
//! [`write_jsonl`] is called at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the per-step root span.
pub const STEP: &str = "step";

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name (`dnn.forward`, `collectives.allreduce`, ...).
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Global step id the span belongs to.
    pub step: u64,
    /// Start, nanoseconds since the run's shared origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's shared origin.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-rank span and collective-entry recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// `(step, entry ns)` of every collective call, in call order.
    calls: Vec<(u64, u64)>,
    /// Per-step counters (`compress.k`, `collectives.inter_bytes`, ...).
    counters: Vec<(u64, &'static str, f64)>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin` (shared by every
    /// rank of one run, so entry stamps compare across ranks).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            calls: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, step: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            step,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("close without a matching open");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, step: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, step);
        let out = f();
        self.close();
        out
    }

    /// Stamps the entry of one collective call.
    pub fn call_entry(&mut self, step: u64) {
        let now = self.now_ns();
        self.calls.push((step, now));
    }

    /// Records a per-step counter value.
    pub fn count(&mut self, step: u64, name: &'static str, value: f64) {
        self.counters.push((step, name, value));
    }
}

/// Per-step figures of one rank: self time per span name (ms), step time,
/// collective wait (ms) and counters.
#[derive(Debug, Default, Clone)]
pub struct StepRow {
    /// Wall time of the `step` span, ms.
    pub step_ms: f64,
    /// Summed duration of the step's child spans, ms.
    pub children_ms: f64,
    /// Self time per child span name, summed over the step, ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Collective calls entered during the step.
    pub calls: u64,
    /// Summed wait for the last rank's entry over the step's calls, ms.
    pub wait_ms: f64,
    /// Per-step counters.
    pub counters: BTreeMap<&'static str, f64>,
}

/// Reduces the recorders of one run (rank order) to per-step rows, pooled
/// over ranks.
///
/// A span's self time is its duration minus the durations of its direct
/// children. The wait of a collective call on a rank is the latest entry
/// stamp of that call over all ranks minus the rank's own stamp.
///
/// # Panics
/// Panics if the ranks entered different numbers of collective calls.
pub fn step_rows(recorders: &[Recorder]) -> Vec<StepRow> {
    let call_count = recorders[0].calls.len();
    assert!(
        recorders.iter().all(|r| r.calls.len() == call_count),
        "ranks entered different collective schedules"
    );
    let last_entry: Vec<u64> = (0..call_count)
        .map(|i| recorders.iter().map(|r| r.calls[i].1).max().unwrap_or(0))
        .collect();
    let mut rows = Vec::new();
    for rec in recorders {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut by_step: BTreeMap<u64, StepRow> = BTreeMap::new();
        for (i, s) in rec.spans.iter().enumerate() {
            let row = by_step.entry(s.step).or_default();
            let self_ms = s.dur_ns().saturating_sub(child_ns[i]) as f64 * 1e-6;
            if s.name == STEP {
                row.step_ms = s.dur_ns() as f64 * 1e-6;
            } else {
                if s.parent.is_some_and(|p| rec.spans[p].name == STEP) {
                    row.children_ms += s.dur_ns() as f64 * 1e-6;
                }
                *row.self_ms.entry(s.name).or_default() += self_ms;
            }
        }
        for (i, &(step, entry)) in rec.calls.iter().enumerate() {
            let row = by_step.entry(step).or_default();
            row.calls += 1;
            row.wait_ms += (last_entry[i] - entry) as f64 * 1e-6;
        }
        for &(step, name, value) in &rec.counters {
            *by_step
                .entry(step)
                .or_default()
                .counters
                .entry(name)
                .or_default() += value;
        }
        rows.extend(by_step.into_values());
    }
    rows
}

/// Writes every span and collective entry of one run as JSON lines.
pub fn write_jsonl(path: &std::path::Path, recorders: &[Recorder]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (rank, rec) in recorders.iter().enumerate() {
        for (id, s) in rec.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"kind\":\"span\",\"rank\":{rank},\"id\":{id},\"parent\":{parent},\"step\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.step, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (call, &(step, entry)) in rec.calls.iter().enumerate() {
            writeln!(
                out,
                "{{\"kind\":\"call\",\"rank\":{rank},\"call\":{call},\"step\":{step},\"entry_ns\":{entry}}}"
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: Option<usize>,
        step: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name,
            parent,
            step,
            start_ns,
            end_ns,
        }
    }

    fn recorder(spans: Vec<Span>, calls: Vec<(u64, u64)>) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans,
            open: Vec::new(),
            calls,
            counters: vec![(0, "compress.k", 5.0)],
        }
    }

    #[test]
    fn self_time_subtracts_children_and_wait_uses_latest_entry() {
        let a = recorder(
            vec![
                span(STEP, None, 0, 0, 10_000_000),
                span("dnn.forward", Some(0), 0, 1_000_000, 4_000_000),
                span("compress.ef", Some(0), 0, 4_000_000, 5_000_000),
                span("compress.ef", Some(0), 0, 6_000_000, 8_000_000),
                span("collectives.inter_ag", Some(0), 0, 8_000_000, 9_500_000),
                span("collectives.intra_ag", Some(4), 0, 8_500_000, 9_000_000),
            ],
            vec![(0, 2_000_000)],
        );
        let b = recorder(
            vec![span(STEP, None, 0, 0, 9_000_000)],
            vec![(0, 5_000_000)],
        );
        let rows = step_rows(&[a, b]);
        assert_eq!(rows.len(), 2);
        let r = &rows[0];
        assert_eq!(r.step_ms, 10.0);
        assert_eq!(r.children_ms, 7.5);
        assert_eq!(r.self_ms["dnn.forward"], 3.0);
        assert_eq!(r.self_ms["compress.ef"], 3.0);
        assert_eq!(r.self_ms["collectives.inter_ag"], 1.0);
        assert_eq!(r.self_ms["collectives.intra_ag"], 0.5);
        assert_eq!((r.calls, r.wait_ms), (1, 3.0));
        assert_eq!(r.counters["compress.k"], 5.0);
        assert_eq!((rows[1].calls, rows[1].wait_ms), (1, 0.0));
    }

    #[test]
    fn nested_spans_nest_under_the_innermost_open_one() {
        let mut rec = Recorder::new(Instant::now());
        rec.open(STEP, 3);
        rec.span("collectives.inter_ag", 3, || ());
        rec.close();
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec
            .spans
            .iter()
            .all(|s| s.step == 3 && s.end_ns >= s.start_ns));
    }
}
