//! In-memory span tracing for the traced run.
//!
//! Each load thread owns a [`Tracer`]; a span wraps one call into a
//! layer's public API, nests under the span that was open when it
//! started, and shares its root's id, so the spans of one request can be
//! grouped. Nothing is written until the run ends. A layer's self time
//! is its span's duration minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run (thread id in the high bits).
    pub id: u64,
    /// The span that was open when this one started.
    pub parent: Option<u64>,
    /// Id of the outermost span of the same request.
    pub root: u64,
    /// Layer boundary, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder; does nothing while disabled.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A disabled tracer whose span ids start at `thread << 40`.
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            epoch,
            next_id: thread << 40,
            open: Vec::new(),
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// Turn recording on or off (takes effect at the next span).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let root = self.open.first().map_or(id, |&i| self.spans[i].id);
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            root,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: how many spans, and their total self time in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
    }
    out
}

/// Write spans as TSV: id, parent, root, name, start_ns, end_ns, self_ns.
pub fn write_tsv(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "id\tparent\troot\tname\tstart_ns\tend_ns\tself_ns")?;
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
            s.id, s.root, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}
