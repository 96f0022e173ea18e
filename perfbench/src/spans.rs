//! The benchmark's own spans, recorded around calls into the engine's
//! public API in the traced run only. Spans stay in memory and are written
//! out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called: `statement`, `prepare`, `run`, `round_trip`, `ping`.
    pub name: &'static str,
    /// Statement kind, e.g. `q3` or `get`.
    pub kind: &'static str,
    /// Shared by every span of one statement.
    pub stmt: u64,
    /// This span's id (1-based).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Time the substrate spent inside this span, from the timing wrapper.
    pub substrate_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    next_stmt: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), next_stmt: 0 }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh statement id.
    pub fn next_statement(&mut self) -> u64 {
        self.next_stmt += 1;
        self.next_stmt
    }

    /// Records a span and returns its id.
    pub fn record(&mut self, mut span: Span) -> u64 {
        span.id = self.spans.len() as u64 + 1;
        let id = span.id;
        self.spans.push(span);
        id
    }

    /// Moves every span of `other` into this recorder, keeping ids unique.
    /// `other` must share this recorder's origin (see [`Recorder::fork`]).
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len() as u64;
        let stmt_offset = self.next_stmt;
        for mut s in other.spans {
            s.id += offset;
            if s.parent != 0 {
                s.parent += offset;
            }
            s.stmt += stmt_offset;
            self.spans.push(s);
        }
        self.next_stmt += other.next_stmt;
    }

    /// An empty recorder on the same clock, for another client thread.
    pub fn fork(&self) -> Recorder {
        Recorder { origin: self.origin, spans: Vec::new(), next_stmt: 0 }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"stmt\":{},\"id\":{},\"parent\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"substrate_ns\":{}}}",
                s.name, s.kind, s.stmt, s.id, s.parent, s.start_ns, s.end_ns, s.substrate_ns
            )?;
        }
        out.flush()
    }
}
