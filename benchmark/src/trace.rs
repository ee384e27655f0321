//! The benchmark's own tracer: a span around every call a driver makes
//! into `dali-engine` or `DaliClient`, kept in a preallocated buffer and
//! written out when the workload ends. Spans inside the crates do not
//! exist yet, so these are the layer boundaries the ledger can see.

use crate::stats::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What a span brackets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// One transaction, begin to commit acknowledged; the parent of every
    /// other span recorded while it is open.
    Txn,
    Begin,
    Read,
    Update,
    Insert,
    Delete,
    Commit,
    Checkpoint,
    Open,
    /// One `DaliClient::pipeline` round trip.
    Batch,
}

impl Verb {
    pub const ALL: [Verb; 10] = [
        Verb::Txn,
        Verb::Begin,
        Verb::Read,
        Verb::Update,
        Verb::Insert,
        Verb::Delete,
        Verb::Commit,
        Verb::Checkpoint,
        Verb::Open,
        Verb::Batch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Txn => "txn",
            Verb::Begin => "begin",
            Verb::Read => "read",
            Verb::Update => "update",
            Verb::Insert => "insert",
            Verb::Delete => "delete",
            Verb::Commit => "commit",
            Verb::Checkpoint => "checkpoint",
            Verb::Open => "open",
            Verb::Batch => "batch",
        }
    }
}

/// Where a driver reports its calls. The untraced implementation
/// compiles to the bare call, so end-to-end slices pay nothing for the
/// tracer's existence.
pub trait Probe {
    /// Run `f` inside a span named `verb`.
    fn span<R>(&mut self, verb: Verb, f: impl FnOnce() -> R) -> R;
    /// Open the transaction span that parents the spans that follow.
    fn txn_open(&mut self);
    /// Close the open transaction span.
    fn txn_close(&mut self);
}

/// Tracing off.
#[derive(Clone, Copy)]
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn span<R>(&mut self, _verb: Verb, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline(always)]
    fn txn_open(&mut self) {}
    #[inline(always)]
    fn txn_close(&mut self) {}
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    verb: Verb,
    /// Index of the parent transaction span, or [`NO_PARENT`].
    parent: u32,
    /// Ordinal of the transaction this span belongs to.
    txn: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Tracing on: spans go into a buffer sized before the slice starts.
pub struct Tracer {
    /// Identifies the recording thread in the trace file.
    lane: u32,
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans not recorded because the buffer was full.
    dropped: u64,
    open_txn: u32,
    txns: u32,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch` (shared between the lanes
    /// of one workload) with room for `capacity` spans.
    pub fn new(lane: u32, epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            lane,
            epoch,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
            open_txn: NO_PARENT,
            txns: 0,
        }
    }

    /// Forget recorded spans, keeping the buffer.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.dropped = 0;
        self.open_txn = NO_PARENT;
        self.txns = 0;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> Option<usize> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }
}

impl Probe for Tracer {
    fn span<R>(&mut self, verb: Verb, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.push(Span {
            verb,
            parent: self.open_txn,
            txn: self.txns,
            start_ns,
            end_ns,
        });
        r
    }

    fn txn_open(&mut self) {
        self.txns += 1;
        let now = self.now_ns();
        self.open_txn = self
            .push(Span {
                verb: Verb::Txn,
                parent: NO_PARENT,
                txn: self.txns,
                start_ns: now,
                end_ns: now,
            })
            .map_or(NO_PARENT, |i| i as u32);
    }

    fn txn_close(&mut self) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(self.open_txn as usize) {
            span.end_ns = now;
        }
        self.open_txn = NO_PARENT;
    }
}

/// Total time, call count and per-call time of one verb over a traced
/// slice.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VerbSummary {
    pub calls: u64,
    pub total_ns: u64,
}

impl VerbSummary {
    pub fn per_call_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Per-verb totals over the lanes of one traced slice.
pub struct TraceSummary {
    verbs: [VerbSummary; Verb::ALL.len()],
    pub spans: u64,
    pub dropped: u64,
}

impl TraceSummary {
    pub fn of(lanes: &[Tracer]) -> TraceSummary {
        let mut verbs = [VerbSummary::default(); Verb::ALL.len()];
        for span in lanes.iter().flat_map(|t| &t.spans) {
            let v = &mut verbs[span.verb as usize];
            v.calls += 1;
            v.total_ns += span.end_ns - span.start_ns;
        }
        TraceSummary {
            verbs,
            spans: lanes.iter().map(|t| t.spans.len() as u64).sum(),
            dropped: lanes.iter().map(|t| t.dropped).sum(),
        }
    }

    pub fn verb(&self, verb: Verb) -> VerbSummary {
        self.verbs[verb as usize]
    }

    /// `{verb: {calls, total_ns, per_call_ns, calls_per_op}}` for the
    /// verbs that were called.
    pub fn to_json(&self, ops: u64) -> Json {
        Json::obj(Verb::ALL.iter().filter_map(|&verb| {
            let s = self.verb(verb);
            (s.calls > 0).then(|| {
                (
                    verb.name(),
                    Json::obj([
                        ("calls", Json::Int(s.calls)),
                        ("total_ns", Json::Int(s.total_ns)),
                        ("per_call_ns", Json::Num(s.per_call_ns())),
                        ("calls_per_op", Json::Num(s.calls as f64 / ops as f64)),
                    ]),
                )
            })
        }))
    }
}

/// Write the lanes' spans as JSON lines: one object per span with its
/// id, name, start, end, parent span id and transaction ordinal.
pub fn write_jsonl(path: &Path, lanes: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in lanes {
        for (i, s) in t.spans.iter().enumerate() {
            write!(
                out,
                "{{\"lane\": {}, \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"txn\": {}, \"parent\": ",
                t.lane,
                s.verb.name(),
                s.start_ns,
                s.end_ns,
                s.txn
            )?;
            if s.parent == NO_PARENT {
                writeln!(out, "null}}")?;
            } else {
                writeln!(out, "{}}}", s.parent)?;
            }
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_transaction() {
        let mut t = Tracer::new(0, Instant::now(), 16);
        t.txn_open();
        assert_eq!(t.span(Verb::Read, || 7), 7);
        t.span(Verb::Update, || ());
        t.txn_close();
        t.span(Verb::Checkpoint, || ());
        let parents: Vec<u32> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [NO_PARENT, 0, 0, NO_PARENT]);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
        let sum = TraceSummary::of(&[t]);
        assert_eq!(sum.verb(Verb::Read).calls, 1);
        assert_eq!(sum.verb(Verb::Txn).calls, 1);
        assert_eq!((sum.spans, sum.dropped), (4, 0));
    }

    #[test]
    fn a_full_buffer_drops_and_counts() {
        let mut t = Tracer::new(0, Instant::now(), 2);
        for _ in 0..5 {
            t.span(Verb::Read, || ());
        }
        assert_eq!((t.spans.len(), t.dropped), (2, 3));
        t.clear();
        assert_eq!((t.spans.len(), t.dropped), (0, 0));
    }
}
