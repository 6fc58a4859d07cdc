//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start, end, the span that caused it
//! (if it was recorded on the same thread of control) and the op id shared by every span
//! of one request, unit or round trip. Spans are buffered in memory and written out once
//! at exit, so recording costs one clock read and one short lock per span. A disabled
//! tracer reads no clock at all, which is how the untraced windows run the same code.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per traced window; further spans are counted as dropped.
const SPAN_CAP: usize = 1_000_000;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Start a span of `name` for operation `op`, caused by span `parent` (0 for none).
    pub fn open(&self, name: &'static str, op: u64, parent: u64) -> Open {
        Open {
            id: if self.enabled {
                self.next_id.fetch_add(1, Ordering::Relaxed)
            } else {
                0
            },
            parent,
            op,
            name,
            start: self.enabled.then(Instant::now),
        }
    }

    /// End a span and keep it.
    pub fn close(&self, open: Open) {
        let Some(start) = open.start else { return };
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let mut spans = self.spans.lock().expect("span buffer poisoned by a panic");
        if spans.len() < SPAN_CAP {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Take the recorded spans, sorted by id.
    pub fn take(&self) -> (Vec<Span>, u64) {
        let mut spans =
            std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned by a panic"));
        spans.sort_by_key(|s| s.id);
        (spans, self.dropped.swap(0, Ordering::Relaxed))
    }
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Children of each span id.
pub fn children(spans: &[Span]) -> HashMap<u64, Vec<&Span>> {
    let mut map: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        map.entry(s.parent).or_default().push(s);
    }
    map
}

/// Self time of a span: its duration minus the part of it that its children cover.
fn self_ns(span: &Span, kids: Option<&Vec<&Span>>) -> u64 {
    let Some(kids) = kids else {
        return span.dur_ns();
    };
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|k| {
            (
                k.start_ns.clamp(span.start_ns, span.end_ns),
                k.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    iv.sort_unstable();
    let (mut covered, mut reach) = (0, span.start_ns);
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.dur_ns() - covered
}

/// Per span name: count, total time and self time, in name order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let kids = children(spans);
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> = Default::default();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns(s, kids.get(&s.id));
    }
    by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect()
}

/// Write spans as tab-separated lines, one per span, each led by its workload.
pub fn write_tsv(out: &mut impl Write, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{workload}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: if parent == 0 { "root" } else { "child" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 90, 120),
        ];
        let t = self_times(&spans);
        let root = t.iter().find(|r| r.0 == "root").unwrap();
        // Children cover [10, 50) and [90, 100): 50 of the root's 100 ns.
        assert_eq!((root.1, root.2, root.3), (1, 100, 50));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let o = t.open("x", 1, 0);
        t.close(o);
        assert!(t.take().0.is_empty());
    }
}
