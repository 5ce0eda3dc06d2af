//! In-memory span store for the traced run, plus the order statistics
//! every metric is read through.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the store's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one request, chunk or replayed call.
    pub req: u64,
    /// CPU time the measuring threads spent inside the span, when read.
    pub cpu_ns: Option<u64>,
    /// COTs (or trees, for GGM) the call processed.
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans are kept in memory while the run measures and written out once
/// at the end.
pub struct SpanStore {
    origin: Instant,
    spans: Vec<Span>,
    next_req: u64,
}

impl SpanStore {
    pub fn new(origin: Instant) -> Self {
        SpanStore {
            origin,
            spans: Vec::with_capacity(1 << 16),
            next_req: 0,
        }
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    pub fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A span over `[start, end]` with no CPU reading and no work count.
    pub fn at(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> Span {
        Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            req,
            cpu_ns: None,
            work: 0,
        }
    }

    /// Records `[start, end]` and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let span = self.at(name, start, end, parent, req);
        self.push(span)
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Indices of the spans called `name`.
    pub fn named(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Durations (ns) of the spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Every span's self time: its duration minus the part of it that
    /// the union of its children's intervals covers.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut parts: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                parts.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in parts {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cpu = s.cpu_ns.map_or("null".to_string(), |c| c.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"cpu_ns\":{cpu},\"work\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.work
            )?;
        }
        out.flush()
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// A tail percentile the sample supports: p99 when there are at least
/// 1000 samples, otherwise the highest percentile with at least ten
/// samples beyond it (nearest rank). Returns `(value, percentile)`.
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let n = v.len();
    let q = tail_quantile(n);
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (s[rank - 1], q * 100.0)
}

/// The quantile [`tail`] reports for `n` samples.
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else {
        (n.saturating_sub(10) as f64 / n.max(1) as f64).max(0.5)
    }
}

/// `[extend, spcot, lpn, other]` nanoseconds of the median `ot.extend`
/// span: its `ot.extend.spcot` and `ot.extend.lpn` children as far as
/// they lie inside it, and its self time. The three parts add up to the
/// whole.
pub fn extend_split(store: &SpanStore) -> Option<[u64; 4]> {
    let mut extends = store.named("ot.extend");
    extends.sort_by_key(|&i| store.spans[i].dur_ns());
    let &i = extends.get(extends.len() / 2)?;
    let parent = &store.spans[i];
    let inside = |name: &str| -> u64 {
        store
            .spans
            .iter()
            .filter(|c| c.parent == Some(i) && c.name == name)
            .map(|c| {
                c.end_ns
                    .min(parent.end_ns)
                    .saturating_sub(c.start_ns.max(parent.start_ns))
            })
            .sum()
    };
    Some([
        parent.dur_ns(),
        inside("ot.extend.spcot"),
        inside("ot.extend.lpn"),
        store.self_times()[i],
    ])
}

pub fn ns_to(unit_ns: f64, v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64 / unit_ns).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, ns: u64) -> Instant {
        origin + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let o = Instant::now();
        let mut st = SpanStore::new(o);
        let root = st.record("root", at(o, 0), at(o, 100), None, 1);
        // Two overlapping children (10..40 ∪ 30..50 = 40 ns) and one that
        // sticks out of the parent (90..120 → 10 ns inside).
        let a = st.record("a", at(o, 10), at(o, 40), Some(root), 1);
        st.record("b", at(o, 30), at(o, 50), Some(root), 1);
        st.record("c", at(o, 90), at(o, 120), Some(root), 1);
        // A grandchild only reduces its own parent's self time.
        st.record("a1", at(o, 15), at(o, 25), Some(a), 1);
        let selfs = st.self_times();
        assert_eq!(selfs[root], 100 - 40 - 10);
        assert_eq!(selfs[a], 30 - 10);
        assert_eq!(selfs[4], 10);
        assert_eq!(st.durations("b"), vec![20]);
    }

    #[test]
    fn extend_phases_add_up_to_the_extension() {
        let o = Instant::now();
        let mut st = SpanStore::new(o);
        for (k, (len, spcot, lpn)) in [(300u64, 180u64, 90u64), (100, 70, 20), (200, 120, 100)]
            .into_iter()
            .enumerate()
        {
            let base = k as u64 * 1000;
            let p = st.record("ot.extend", at(o, base), at(o, base + len), None, k as u64);
            st.record(
                "ot.extend.spcot",
                at(o, base + 5),
                at(o, base + 5 + spcot),
                Some(p),
                k as u64,
            );
            st.record(
                "ot.extend.lpn",
                at(o, base + 5 + spcot),
                at(o, base + 5 + spcot + lpn),
                Some(p),
                k as u64,
            );
        }
        // The median extension (200 ns) has an LPN child running 25 ns
        // past its end: only the part inside counts.
        let [total, spcot, lpn, other] = extend_split(&st).unwrap();
        assert_eq!([total, spcot, lpn], [200, 120, 75]);
        assert_eq!(spcot + lpn + other, total);
        assert_eq!(other, 5);
        assert!(extend_split(&SpanStore::new(o)).is_none());
    }

    #[test]
    fn tail_uses_p99_only_with_enough_samples() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big), (1980.0, 99.0));
        let small: Vec<f64> = (1..=500).map(f64::from).collect();
        let (v, q) = tail(&small);
        assert_eq!(q, 98.0);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(small.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
