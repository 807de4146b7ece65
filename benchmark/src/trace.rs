//! Spans recorded in the benchmark's own code around every call into a
//! layer (crate) of the workspace.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`; the layer is the
//! part of the name before the first dot (`core.apply_update` → `core`).
//! Spans go into a preallocated `Vec` and are written out when the pass
//! ends.  A layer's *self time* is its spans' duration minus what their
//! child spans cover; the self time of the `bench.*` spans is the share of
//! a pass that no layer accounts for.
//!
//! With tracing off, [`Tracer::span`] is one predictable branch around the
//! call — the untraced pass, the only source of end-to-end numbers, runs
//! the same code.

use crate::util::json_str;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept per pass; later spans are counted in `dropped`, not stored,
/// so a long pass cannot grow the buffer while it is being timed.
const SPAN_CAPACITY: usize = 600_000;
const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op_id: u64,
}

/// Totals of one span name.
#[derive(Clone, Copy, Default, Debug)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// The open `untraced.paused` span while recording is paused.
    paused: Option<u32>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            paused: None,
            dropped: 0,
        }
    }

    /// A recording tracer with its buffer allocated up front.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            stack: Vec::with_capacity(16),
            paused: None,
            dropped: 0,
        }
    }

    /// Pauses or resumes recording (the untraced rounds that price the
    /// tracing itself use this).  A paused stretch is one `untraced.paused`
    /// span, so its time is not mistaken for unattributed benchmark time.
    pub fn set_enabled(&mut self, enabled: bool) {
        if self.spans.capacity() == 0 || enabled == self.enabled {
            return;
        }
        if enabled {
            if let Some(idx) = self.paused.take() {
                self.spans[idx as usize].end_ns = self.now_ns();
            }
        } else if self.spans.len() < self.spans.capacity() {
            let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
            self.paused = Some(self.spans.len() as u32);
            self.spans.push(Span {
                name: "untraced.paused",
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op_id: 0,
            });
        }
        self.enabled = enabled;
    }

    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    /// Runs `f` inside a span named `name`; `op_id` ties the spans of one
    /// operation (a batch, a round) together.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op_id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// A leaf span: `f` makes no traced calls of its own.
    #[inline]
    pub fn leaf<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        self.span(name, op_id, |_| f())
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Per-name totals with self time (duration minus direct children).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(*children);
        }
        out
    }

    /// Self time per layer (name prefix before the first dot), in ns.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, t) in self.totals() {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0) += t.self_ns;
        }
        out
    }

    /// Share (0..=100) of the root spans' time that no layer span covers:
    /// the self time of the `bench.*` spans over the duration of the roots.
    pub fn unattributed_pct(&self) -> f64 {
        let root_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let bench_ns = self.layer_self_ns().get("bench").copied().unwrap_or(0);
        if root_ns == 0 {
            0.0
        } else {
            100.0 * bench_ns as f64 / root_ns as f64
        }
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\": {}, \"dropped_spans\": {}, \"layer_self_ns\": {{{}}}, \"spans\": [",
            json_str(workload),
            self.dropped,
            self.layer_self_ns()
                .iter()
                .map(|(l, ns)| format!("{}: {ns}", json_str(l)))
                .collect::<Vec<_>>()
                .join(", ")
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}{}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.op_id,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
