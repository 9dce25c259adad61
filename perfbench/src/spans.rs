//! Benchmark-side spans: recorded around each public call the client
//! makes into a layer, kept in memory, analysed and written out at the
//! end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: usize,
    /// Client call the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Thread-safe span store. `open` records the start and returns the
/// span's index; `close` records the end.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Mutex::new(Vec::with_capacity(1 << 16)) }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: usize, request: u64) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned by a panicking thread");
        spans.push(Span { name, start, end: start, parent, request });
        spans.len() - 1
    }

    pub fn close(&self, index: usize) {
        let end = self.now();
        self.spans.lock().expect("span store poisoned by a panicking thread")[index].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let index = self.open(name, parent, request);
        let out = f();
        self.close(index);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span store poisoned by a panicking thread")
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (children may overlap when they ran on
/// several threads, so their union is subtracted, not their sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != ROOT {
            children[s.parent].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Summed self time per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

/// Durations, in nanoseconds, of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::dur).collect()
}

/// Writes spans as tab-separated rows: replay, name, start_ns, end_ns,
/// parent (-1 for a root), request.
pub fn write_tsv(path: &std::path::Path, replays: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "replay\tname\tstart_ns\tend_ns\tparent\trequest")?;
    for (r, spans) in replays.iter().enumerate() {
        for s in spans {
            let parent = if s.parent == ROOT { -1 } else { s.parent as i64 };
            writeln!(out, "{r}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start, s.end, s.request)?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: usize) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("batch.place_many", 0, 100, ROOT),
            span("schedulers.compute", 10, 40, 0),
            span("schedulers.compute", 30, 60, 0),
            span("schedulers.compute", 80, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60, 30, 30, 10]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["batch"], 40);
        assert_eq!(layers["schedulers"], 70);
    }
}
