//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer — set-up calls, and each request's schedule slot,
//! send and answer — never from inside the program. They are kept in
//! memory and written out as JSON lines when the run ends. Spans of one
//! request share its `seq` as their id.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::load::Phase;

#[derive(Debug, Clone)]
pub struct Span {
    /// Request seq, or 0 for set-up spans.
    pub id: u64,
    pub layer: &'static str,
    pub name: &'static str,
    /// Name of the span that caused this one ("" for a root).
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store; disabled logs record nothing.
#[derive(Debug)]
pub struct SpanLog {
    pub base: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

fn ns(base: Instant) -> u64 {
    u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl SpanLog {
    pub fn new(base: Instant, enabled: bool) -> Self {
        Self {
            base,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Run `f` as a set-up span of `layer`; returns its result and
    /// duration in seconds (timed whether or not the log is enabled).
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = ns(self.base);
        let out = f();
        let end = ns(self.base);
        if self.enabled {
            self.spans.push(Span {
                id: 0,
                layer,
                name,
                parent: "setup",
                start_ns: start,
                end_ns: end,
            });
        }
        (out, (end - start) as f64 / 1e9)
    }

    /// Record the spans of every answered request of a phase: the client
    /// span (scheduled → answered) and, inside it, the sender's lateness,
    /// the send call, and the backend's own reported interval (which
    /// ends when the answer left the backend, so it is placed ending at
    /// the client's answer time).
    pub fn phase(&mut self, phase: &Phase, send_layer: &'static str, backend_layer: &'static str) {
        if !self.enabled {
            return;
        }
        for s in &phase.samples {
            let Some(a) = s.answer() else { continue };
            let spans = [
                ("gen", "request", "", s.sched_ns, s.done_ns),
                ("gen", "late", "request", s.sched_ns, s.sent_ns),
                (
                    send_layer,
                    "send",
                    "request",
                    s.sent_ns,
                    s.sent_ns + s.io_ns,
                ),
                (
                    backend_layer,
                    "backend",
                    "request",
                    s.done_ns.saturating_sub(a.backend_ns),
                    s.done_ns,
                ),
            ];
            for (layer, name, parent, start_ns, end_ns) in spans {
                self.spans.push(Span {
                    id: a.seq,
                    layer,
                    name,
                    parent,
                    start_ns,
                    end_ns,
                });
            }
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"layer\":\"{}\",\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.layer, s.name, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
