//! In-memory spans recorded around calls into the program's public
//! functions. Nothing inside the program is instrumented: a span is the
//! wall time (and heap-operation count) of one call made from this
//! benchmark.

use crate::alloc::heap_ops;
use crate::stats::Samples;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Index of the parent span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    pub dur_ns: u64,
    pub heap_ops: u64,
}

/// Span storage. Spans are appended in completion order.
#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer { spans: Vec::with_capacity(capacity) }
    }

    /// Times `f` as one span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let ops = heap_ops();
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let heap_ops = heap_ops() - ops;
        self.spans.push(Span { name, parent, dur_ns, heap_ops });
        out
    }

    /// Records a span timed elsewhere (a call this benchmark timed on
    /// another thread).
    pub fn record(&mut self, name: &'static str, dur_ns: u64) {
        self.spans.push(Span { name, parent: None, dur_ns, heap_ops: 0 });
    }

    /// Reserves a parent span whose duration is filled in by
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        self.spans.push(Span { name, parent: None, dur_ns: 0, heap_ops: 0 });
        self.spans.len() - 1
    }

    /// Sets a parent span to the sum of its children's durations and
    /// heap operations (its self time is zero by construction: the
    /// bookkeeping between children is the benchmark's, not the
    /// program's).
    pub fn close(&mut self, parent: usize) {
        let (dur, ops) = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .fold((0, 0), |(d, o), s| (d + s.dur_ns, o + s.heap_ops));
        self.spans[parent].dur_ns = dur;
        self.spans[parent].heap_ops = ops;
    }

    /// Per-name aggregates over every recorded span. Heap operations
    /// are summed only over the spans `count_heap` accepts (by index).
    pub fn by_name(&self, count_heap: impl Fn(usize) -> bool) -> BTreeMap<&'static str, SpanStats> {
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.us.push(s.dur_ns as f64 / 1e3);
            if count_heap(i) {
                e.heap_ops += s.heap_ops;
                e.heap_calls += 1;
            }
        }
        out
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    /// Durations in µs.
    pub us: Samples,
    /// Heap operations over the `heap_calls` spans that were counted.
    pub heap_ops: u64,
    pub heap_calls: u64,
}

impl SpanStats {
    pub fn heap_ops_per_call(&self) -> Option<f64> {
        (self.heap_calls > 0).then(|| self.heap_ops as f64 / self.heap_calls as f64)
    }
}
