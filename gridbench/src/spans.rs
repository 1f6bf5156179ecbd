//! In-memory spans for the traced run: name, start, end, parent and
//! request id, recorded around the benchmark's calls into each layer and
//! written out once the run ends. With tracing off every call is a no-op.

use std::io::Write;
use std::time::Instant;

pub const NONE: usize = usize::MAX;

pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: usize,
    pub req: u64,
}

pub struct Spans {
    on: bool,
    t0: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            list: Vec::new(),
        }
    }

    /// Record a finished span; returns its id (or [`NONE`] when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.on {
            return NONE;
        }
        self.list.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.list.len() - 1
    }

    /// Open a span now; [`Spans::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: usize) -> usize {
        let now = Instant::now();
        self.record(name, parent, 0, now, now)
    }

    pub fn close(&mut self, id: usize) {
        if let Some(s) = self.list.get_mut(id) {
            s.end = Instant::now();
        }
    }

    /// Per span name: count, total ms, and self ms (duration minus the
    /// time its direct children cover), in first-seen order.
    pub fn by_name(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let dur = |s: &Span| s.end.saturating_duration_since(s.start).as_secs_f64() * 1e3;
        let mut child_ms = vec![0.0; self.list.len()];
        for s in &self.list {
            if s.parent != NONE {
                child_ms[s.parent] += dur(s);
            }
        }
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in self.list.iter().enumerate() {
            let own = (dur(s) - child_ms[i]).max(0.0);
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += dur(s);
                    e.3 += own;
                }
                None => out.push((s.name, 1, dur(s), own)),
            }
        }
        out
    }

    /// Write one JSON object per span (times in µs from the run start).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let us = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.list.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"req\":{}}}",
                s.name,
                us(s.start),
                us(s.end),
                s.req
            )?;
        }
        f.flush()
    }
}
