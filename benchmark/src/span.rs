//! In-memory spans around calls into a layer's public functions, kept
//! until the run ends and written out as JSON.
//!
//! A span is `{name, start, end, parent, op_id}`. Every rung of the
//! ladder is one span; inside it, one op in [`SAMPLE`] gets a child span
//! carrying the op's index in the stream, and a service request's
//! `service.submit` span is a child of its `service.request` span, so a
//! request's spans share an `op_id` and its queueing time is the parent's
//! self time. The end-to-end run carries a switched-off tracer through
//! the same loops; what switching it on costs is `trace.overhead_share`.

use std::io::Write;
use std::path::Path;

use workload::latency::{elapsed_ns, now};

/// One op in this many is recorded.
pub const SAMPLE: usize = 64;

struct Span {
    name: &'static str,
    /// Clock ticks (`workload::latency::now`).
    start: u64,
    dur_ns: u64,
    /// Id of the enclosing span; 0 for none.
    parent: u32,
    op_id: Option<u64>,
}

pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    /// The innermost open rung: parent of the op spans recorded now.
    scope: u32,
}

impl Tracer {
    /// A tracer that records nothing, for the end-to-end run.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            spans: Vec::new(),
            scope: 0,
        }
    }

    /// A recording tracer with room for `capacity` spans, so pushing one
    /// inside a measured loop does not allocate.
    pub fn on(capacity: usize) -> Tracer {
        Tracer {
            on: true,
            spans: Vec::with_capacity(capacity),
            scope: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the op at stream index `i` gets a span.
    #[inline]
    pub fn samples(&self, i: usize) -> bool {
        self.on && i.is_multiple_of(SAMPLE)
    }

    /// Records a finished span under the open rung; returns its id.
    pub fn op(&mut self, name: &'static str, start: u64, dur_ns: u64, op_id: u64) -> u32 {
        self.push(name, start, dur_ns, self.scope, Some(op_id))
    }

    /// Records a finished span under span `parent`.
    pub fn child(&mut self, name: &'static str, start: u64, dur_ns: u64, parent: u32, op_id: u64) {
        self.push(name, start, dur_ns, parent, Some(op_id));
    }

    /// Sets the duration of a span recorded before its end was known.
    pub fn finish(&mut self, id: u32, dur_ns: u64) {
        self.spans[id as usize - 1].dur_ns = dur_ns;
    }

    /// Opens a rung: a span that becomes the parent of op spans until
    /// [`close`](Self::close)d.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.push(name, now(), 0, self.scope, None);
        self.scope = id;
        id
    }

    pub fn close(&mut self, id: u32) {
        let span = &mut self.spans[id as usize - 1];
        span.dur_ns = elapsed_ns(span.start);
        self.scope = span.parent;
    }

    fn push(
        &mut self,
        name: &'static str,
        start: u64,
        dur_ns: u64,
        parent: u32,
        op_id: Option<u64>,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start,
            dur_ns,
            parent,
            op_id,
        });
        self.spans.len() as u32
    }

    /// Durations of every span called `name`.
    pub fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.dur_ns)
    }

    /// Writes every span as one JSON array, times in nanoseconds since
    /// the first span started, ids counting from 1 in array order.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let base = self.spans.first().map_or(0, |s| s.start);
        let ticks = now().saturating_sub(base).max(1);
        let ns_per_tick = elapsed_ns(base) as f64 / ticks as f64;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let start = (s.start.saturating_sub(base) as f64 * ns_per_tick) as u64;
            let parent = if s.parent == 0 {
                "null".into()
            } else {
                s.parent.to_string()
            };
            let op_id = s.op_id.map_or("null".into(), |id| id.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start\":{start},\"end\":{},\"parent\":{parent},\"op_id\":{op_id}}}{comma}",
                i + 1,
                s.name,
                start + s.dur_ns,
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}
