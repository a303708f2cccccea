//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, in the benchmark, around calls into
//! the layers of the stack. Each span carries a name, start and end
//! (nanoseconds since the recorder was created), its parent span, and
//! the id of the beacon, query, build or replicate that caused it.
//! Nothing is written until [`Tracer::write_tsv`] at the end of a run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer or operation name, e.g. `churn.publish`.
    pub name: &'static str,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// Id of the operation that caused the span.
    pub cause: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder; a disabled recorder reads no clock and stores nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records nothing (the untraced run).
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The current time when recording, else `None` (no clock read).
    #[inline]
    pub fn mark(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span from `start` to `end` under `parent` and returns
    /// its index; a no-op returning [`NO_PARENT`] when either mark is
    /// missing (recording off).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u32,
        cause: u64,
        start: Option<Instant>,
        end: Option<Instant>,
    ) -> u32 {
        let (Some(s), Some(e)) = (start, end) else {
            return NO_PARENT;
        };
        let span = Span {
            name,
            parent,
            cause,
            start: self.ns(s),
            end: self.ns(e),
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Records a root span and returns its index, so children can be
    /// recorded after it once their marks are known.
    pub fn root(
        &mut self,
        name: &'static str,
        cause: u64,
        start: Option<Instant>,
        end: Option<Instant>,
    ) -> u32 {
        self.span(name, NO_PARENT, cause, start, end)
    }

    /// Sets the end of span `id` (recorded with a provisional end);
    /// a no-op when recording is off.
    pub fn close(&mut self, id: u32, end: Option<Instant>) {
        if let Some(e) = end {
            let e = self.ns(e);
            if let Some(span) = self.spans.get_mut(id as usize) {
                span.end = e;
            }
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line (with a header).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tcause\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.cause, s.start, s.end, self_ns[i]
            )?;
        }
        out.flush()
    }
}

/// Children of every span, by index.
fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            kids[s.parent as usize].push(i);
        }
    }
    kids
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .zip(&kids)
        .map(|(s, k)| {
            let mut iv: Vec<(u64, u64)> =
                k.iter().map(|&c| (spans[c].start, spans[c].end)).collect();
            s.dur() - covered(s.start, s.end, &mut iv)
        })
        .collect()
}

/// Per root-span name: the share of the roots' summed wall time that
/// their child spans cover. Roots without children are skipped (a
/// query is a single call into one layer and has no inner spans).
pub fn coverage(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let kids = children(spans);
    let selfs = self_times(spans);
    let mut acc: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT && !kids[i].is_empty() {
            let e = acc.entry(s.name).or_default();
            e.0 += s.dur() - selfs[i];
            e.1 += s.dur();
        }
    }
    acc.into_iter()
        .map(|(name, (cov, wall))| {
            let share = if wall == 0 {
                1.0
            } else {
                cov as f64 / wall as f64
            };
            (name, share)
        })
        .collect()
}

/// Per span name: number of spans and summed self time (ns).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut acc: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, st) in spans.iter().zip(selfs) {
        let e = acc.entry(s.name).or_default();
        e.0 += 1;
        e.1 += st;
    }
    acc
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            cause: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // root [0,100) with children [10,30) and [20,50) (overlapping,
        // union 40) and a grandchild [12,18) inside the first child.
        let spans = vec![
            sp("beacon", NO_PARENT, 0, 100),
            sp("a", 0, 10, 30),
            sp("b", 0, 20, 50),
            sp("a.inner", 1, 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 30, 6]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["beacon"], (1, 60));
        assert_eq!(by["a"], (1, 14));
        let cov = coverage(&spans);
        assert!((cov["beacon"] - 0.4).abs() < 1e-12);
        assert!(!cov.contains_key("a"), "only roots are reported");
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            sp("root", NO_PARENT, 100, 200),
            sp("early", 0, 50, 120),
            sp("late", 0, 190, 260),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 10);
    }

    #[test]
    fn coverage_pools_roots_of_one_name() {
        let spans = vec![
            sp("beacon", NO_PARENT, 0, 100),
            sp("x", 0, 0, 100),
            sp("beacon", NO_PARENT, 100, 200),
            sp("x", 2, 100, 150),
            sp("query", NO_PARENT, 200, 210),
        ];
        let cov = coverage(&spans);
        assert!((cov["beacon"] - 0.75).abs() < 1e-12);
        assert!(!cov.contains_key("query"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let m = t.mark();
        assert!(m.is_none());
        assert_eq!(t.root("r", 0, m, m), NO_PARENT);
        assert!(t.spans().is_empty());
        let mut t = Tracer::on();
        let (a, b) = (t.mark(), t.mark());
        let r = t.root("r", 7, a, b);
        t.span("c", r, 7, a, b);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].cause, 7);
    }
}
