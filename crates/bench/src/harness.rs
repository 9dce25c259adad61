//! The bench harness: one timer, one quick-mode switch, one percentile
//! convention and one `BENCH_*.json` writer.
//!
//! Every bench target is a plain `harness = false` main built on this
//! module. The exhibit benches print one timing line per measurement
//! through [`Exhibit`]; the gated benches also write a
//! [`BenchReport`], in which each headline declares its unit, its
//! direction and the tolerance `tools/bench_gate.py` gates it at.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// True in quick (CI smoke) mode: `--quick` on the command line or
/// `BENCH_QUICK=1` in the environment.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// The nearest-rank `q`-quantile of an ascending slice: rank
/// ⌈q·n⌉, at least 1 — the convention of
/// `HistogramSnapshot::quantile_us`. For even `n` the median is the
/// lower middle element.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Median nanoseconds per call of `f`: calibrate an iteration batch to
/// ~`target_ms` from one call, warm up, then take the median of
/// `samples` batch timings.
pub fn median_ns<R>(samples: usize, target_ms: f64, mut f: impl FnMut() -> R) -> f64 {
    calibrated_median(samples, target_ms, |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        start.elapsed()
    })
}

/// [`median_ns`] with a fresh input from `setup` for every call of
/// `routine`; only `routine` is timed.
pub fn median_ns_batched<I, R>(
    samples: usize,
    target_ms: f64,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> R,
) -> f64 {
    calibrated_median(samples, target_ms, |iters| {
        let mut timed = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            timed += start.elapsed();
        }
        timed
    })
}

/// `sample(iters)` runs `iters` iterations and returns their timed
/// wall-clock total.
fn calibrated_median(
    samples: usize,
    target_ms: f64,
    mut sample: impl FnMut(u64) -> Duration,
) -> f64 {
    let once = sample(1).as_secs_f64().max(1e-9);
    let iters = ((target_ms / 1e3 / once).ceil() as u64).clamp(1, 1_000_000);
    sample(iters.min(100));
    let mut per_iter: Vec<f64> = (0..samples.max(1))
        .map(|_| sample(iters).as_secs_f64() * 1e9 / iters as f64)
        .collect();
    per_iter.sort_by(f64::total_cmp);
    percentile(&per_iter, 0.5)
}

/// One exhibit bench's timing lines: each measurement prints
/// `<group>/<id>` and its median time per iteration. Quick mode takes
/// 3 samples of ~2 ms, full mode 11 samples of ~20 ms.
pub struct Exhibit {
    group: &'static str,
    samples: usize,
    target_ms: f64,
}

impl Exhibit {
    /// Starts the named group with the sampling plan of the current mode.
    pub fn new(group: &'static str) -> Self {
        let (samples, target_ms) = if quick() { (3, 2.0) } else { (11, 20.0) };
        Exhibit { group, samples, target_ms }
    }

    /// Times `f` and prints its line.
    pub fn time<R>(&self, id: impl Display, f: impl FnMut() -> R) {
        self.print(id, median_ns(self.samples, self.target_ms, f), None);
    }

    /// Times `f`, which processes `elements` items per call, and prints
    /// its line with the element rate.
    pub fn time_elements<R>(&self, id: impl Display, elements: u64, f: impl FnMut() -> R) {
        self.print(id, median_ns(self.samples, self.target_ms, f), Some(elements));
    }

    /// Times `routine` on a fresh untimed `setup` input per iteration
    /// and prints its line.
    pub fn time_batched<I, R>(
        &self,
        id: impl Display,
        setup: impl FnMut() -> I,
        routine: impl FnMut(I) -> R,
    ) {
        self.print(id, median_ns_batched(self.samples, self.target_ms, setup, routine), None);
    }

    fn print(&self, id: impl Display, ns: f64, elements: Option<u64>) {
        let label = format!("{}/{id}", self.group);
        let median = Duration::from_nanos(ns.round() as u64);
        match elements {
            Some(n) if ns > 0.0 => {
                let rate = n as f64 * 1e9 / ns;
                println!("{label:<60} {median:>12.2?}/iter  {rate:>14.0} elem/s");
            }
            _ => println!("{label:<60} {median:>12.2?}/iter"),
        }
    }
}

/// Which way a headline improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (speedups, throughput, completions).
    Higher,
    /// Smaller values are better (latencies, counts of waste).
    Lower,
}

/// A JSON scalar as the report writes it.
#[derive(Debug, Clone)]
pub enum Value {
    /// An integer.
    Int(u64),
    /// A float printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
}

/// A float printed with `decimals` digits after the point.
pub fn fixed(x: f64, decimals: usize) -> Value {
    Value::Fixed(x, decimals)
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Fixed(x, d) => write!(f, "{x:.d$}"),
            Value::Str(s) => write!(f, "\"{}\"", escape(s)),
        }
    }
}

/// Escapes `s` for use inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A `BENCH_<bench>.json` report, schema version 2: `bench`,
/// `schema_version`, `mode`, `machine` (`nproc`, `profile`), the run
/// `params`, the gated `headlines` (each with `value`, `unit`,
/// `better` and `tolerance`) and the `results` rows.
pub struct BenchReport {
    bench: &'static str,
    params: Vec<(&'static str, Value)>,
    headlines: Vec<(&'static str, String)>,
    results: Vec<Vec<(&'static str, Value)>>,
}

impl BenchReport {
    /// An empty report for the named bench.
    pub fn new(bench: &'static str) -> Self {
        BenchReport { bench, params: Vec::new(), headlines: Vec::new(), results: Vec::new() }
    }

    /// Records one run parameter.
    pub fn param(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        self.params.push((key, value.into()));
        self
    }

    /// Records one gated headline. `tolerance` is the relative slip the
    /// gate allows in the worse direction (0.5 = may be 50% worse; 0.0
    /// = may not be worse at all).
    pub fn headline(
        &mut self,
        name: &'static str,
        value: impl Into<Value>,
        unit: &str,
        better: Better,
        tolerance: f64,
    ) -> &mut Self {
        let better = match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        self.headlines.push((
            name,
            format!(
                "{{\"value\": {}, \"unit\": \"{}\", \"better\": \"{better}\", \"tolerance\": {tolerance:?}}}",
                value.into(),
                escape(unit)
            ),
        ));
        self
    }

    /// Appends one results row.
    pub fn row(&mut self, fields: Vec<(&'static str, Value)>) -> &mut Self {
        self.results.push(fields);
        self
    }

    /// Appends a `{"metric": .., "value": ..}` results row.
    pub fn metric(&mut self, name: impl Display, value: impl Into<Value>) -> &mut Self {
        self.row(vec![("metric", Value::Str(name.to_string())), ("value", value.into())])
    }

    /// Renders the report as JSON text.
    fn render(&self) -> String {
        let fields = |fields: &[(&str, Value)]| -> Vec<String> {
            fields.iter().map(|(k, v)| format!("\"{}\": {v}", escape(k))).collect()
        };
        let indent = |items: Vec<String>| -> String {
            items.iter().map(|item| format!("    {item}")).collect::<Vec<_>>().join(",\n")
        };
        let headlines = self
            .headlines
            .iter()
            .map(|(name, decl)| format!("\"{}\": {decl}", escape(name)))
            .collect();
        let results = self.results.iter().map(|row| format!("{{{}}}", fields(row).join(", ")));
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"{bench}\",\n",
                "  \"schema_version\": 2,\n",
                "  \"mode\": \"{mode}\",\n",
                "  \"machine\": {{\"nproc\": {nproc}, \"profile\": \"{profile}\"}},\n",
                "  \"params\": {{\n{params}\n  }},\n",
                "  \"headlines\": {{\n{headlines}\n  }},\n",
                "  \"results\": [\n{results}\n  ]\n",
                "}}\n",
            ),
            bench = escape(self.bench),
            mode = if quick() { "quick" } else { "full" },
            nproc = std::thread::available_parallelism().map_or(0, |n| n.get()),
            profile = if cfg!(debug_assertions) { "debug" } else { "release" },
            params = indent(fields(&self.params)),
            headlines = indent(headlines),
            results = indent(results.collect()),
        )
    }

    /// Writes `BENCH_<bench>.json` at the repo root and prints its path.
    pub fn write(&self) {
        let out = format!("{}/../../BENCH_{}.json", env!("CARGO_MANIFEST_DIR"), self.bench);
        std::fs::write(&out, self.render()).unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("wrote {out}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let twenty: Vec<u32> = (1..=20).collect();
        assert_eq!(percentile(&twenty, 0.5), 10);
        assert_eq!(percentile(&twenty, 0.95), 19);
        let one_twenty: Vec<u32> = (1..=120).collect();
        assert_eq!(percentile(&one_twenty, 0.5), 60);
        assert_eq!(percentile(&one_twenty, 0.95), 114);
        assert_eq!(percentile(&[7u32], 0.0), 7);
        assert_eq!(percentile(&[1u32, 2, 3], 1.0), 3);
    }

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\u{1}"), "x\\ny\\u0001");
    }

    #[test]
    fn report_renders_declared_headlines() {
        let mut r = BenchReport::new("unit");
        r.param("seed", 7u64).param("scenario", "a \"b\"");
        r.headline("headline_x_speedup", fixed(2.0, 2), "x", Better::Higher, 0.5);
        r.headline("headline_y_ns", 10u64, "ns", Better::Lower, 0.0);
        r.metric("y_ns", 10u64);
        let json = r.render();
        assert!(json.contains("\"schema_version\": 2"));
        assert!(json.contains("\"scenario\": \"a \\\"b\\\"\""));
        assert!(json.contains(
            "\"headline_x_speedup\": {\"value\": 2.00, \"unit\": \"x\", \"better\": \"higher\", \"tolerance\": 0.5}"
        ));
        assert!(json.contains("\"tolerance\": 0.0}"));
        assert!(json.contains("{\"metric\": \"y_ns\", \"value\": 10}"));
    }
}
