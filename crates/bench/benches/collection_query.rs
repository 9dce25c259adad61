#![allow(missing_docs)]
//! Collection query engine: indexed planner vs linear scan, at 100 /
//! 1k / 10k records, across selective and non-selective queries.
//!
//! Unlike the criterion-style figure benches, this harness also emits
//! `BENCH_collection_query.json` at the repo root — the first point of
//! the perf trajectory — with before (`query_scan`, the pre-index
//! linear scan) and after (`query_parsed`, the planned path) numbers
//! side by side. Methodology matches the vendored criterion shim:
//! warmup, then median over fixed-count samples of a calibrated
//! iteration batch.
//!
//! Run quick (CI smoke): `cargo bench -p legion-bench --bench
//! collection_query -- --quick`.

use legion::collection::{parse_query, Collection, Query};
use legion::core::{AttrValue, AttributeDb, Loid, LoidKind, SimTime};
use std::sync::Arc;
use std::time::Instant;

/// A synthetic collection of `n` host-shaped records; `HPUX` appears on
/// exactly 1% of hosts so equality on it is the selective case the
/// acceptance criteria measure.
fn synthetic_collection(n: usize) -> Arc<Collection> {
    let c = Collection::new(Loid::synthetic(LoidKind::Service, 9), 9);
    for i in 0..n {
        let os = if i % 100 == 0 {
            "HPUX"
        } else if i % 3 == 0 {
            "IRIX"
        } else {
            "Linux"
        };
        let attrs = AttributeDb::new()
            .with("host_name", format!("h{i}"))
            .with("host_os_name", os)
            .with("host_os_version", if i % 2 == 0 { "5.3" } else { "6.5" })
            .with("host_arch", if i % 3 == 0 { "mips" } else { "x86" })
            .with("host_load", (i % 100) as f64 / 50.0)
            .with("host_memory_mb", (256 * (1 + i % 8)) as i64)
            .with("host_domain", format!("site{}.edu", i % 16))
            .with(
                "host_compatible_vaults",
                AttrValue::List(vec![Loid::synthetic(LoidKind::Vault, (i % 16) as u64)
                    .to_string()
                    .into()]),
            );
        c.join_with(Loid::synthetic(LoidKind::Host, i as u64), attrs, SimTime::ZERO);
    }
    c
}

/// (label, query text): selective index hits, range probes, anchored
/// prefixes, a non-selective sweep, and a deliberately non-indexable
/// pattern exercising the fallback scan.
const QUERIES: &[(&str, &str)] = &[
    ("selective_eq", r#"$host_os_name == "HPUX""#),
    ("selective_prefix", r#"match("^HP", $host_os_name)"#),
    ("selective_range", "$host_load < 0.02"),
    (
        "paper_anchored",
        r#"match("^IRIX$", $host_os_name) and match("^5\.", $host_os_version)"#,
    ),
    ("non_selective_range", "$host_load >= 0.0"),
    ("fallback_unanchored", r#"match($host_os_name, "IRIX")"#),
];

/// Median nanoseconds per call of `f`, criterion-shim style: calibrate
/// an iteration batch to ~`target_ms`, then take the median of
/// `samples` batch timings.
fn median_ns(samples: usize, target_ms: f64, mut f: impl FnMut() -> usize) -> f64 {
    // Calibration.
    let start = Instant::now();
    std::hint::black_box(f());
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((target_ms / 1e3 / once).ceil() as u64).clamp(1, 1_000_000);
    // Warmup.
    for _ in 0..iters.min(100) {
        std::hint::black_box(f());
    }
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    timings[timings.len() / 2]
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

struct Row {
    label: &'static str,
    text: &'static str,
    records: usize,
    hits: usize,
    scan_ns: f64,
    indexed_ns: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1");
    let (samples, target_ms) = if quick { (5, 2.0) } else { (15, 20.0) };
    let sizes: &[usize] = &[100, 1000, 10_000];

    let mut rows: Vec<Row> = Vec::new();
    for &n in sizes {
        let coll = synthetic_collection(n);
        for (label, text) in QUERIES {
            let q: Query = parse_query(text).expect("valid query");
            let hits = coll.query_parsed(&q).len();
            assert_eq!(hits, coll.query_scan(&q).len(), "paths must agree");
            let scan_ns = median_ns(samples, target_ms, || coll.query_scan(&q).len());
            let indexed_ns = median_ns(samples, target_ms, || coll.query_parsed(&q).len());
            println!(
                "collection_query/{label}/{n}: scan {scan_ns:>12.0} ns, indexed {indexed_ns:>12.0} ns, speedup {:>7.2}x ({hits} hits)",
                scan_ns / indexed_ns
            );
            rows.push(Row { label, text, records: n, hits, scan_ns, indexed_ns });
        }
    }

    // The acceptance-criteria headline: selective equality at 10k.
    let headline = rows
        .iter()
        .find(|r| r.label == "selective_eq" && r.records == 10_000)
        .expect("headline row");
    let headline_speedup = headline.scan_ns / headline.indexed_ns;
    println!(
        "\nheadline: selective_eq @ 10k records — {:.0} ns scan vs {:.0} ns indexed ({headline_speedup:.1}x)",
        headline.scan_ns, headline.indexed_ns
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"collection_query\",\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    json.push_str(&format!("  \"samples_per_measurement\": {samples},\n"));
    json.push_str(
        "  \"before\": \"query_scan: the pre-index linear scan over every record\",\n",
    );
    json.push_str(
        "  \"after\": \"query_parsed: planner + secondary indexes, scan fallback\",\n",
    );
    json.push_str(&format!(
        "  \"headline_selective_eq_10k_speedup\": {headline_speedup:.2},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"text\": \"{}\", \"records\": {}, \"hits\": {}, \"scan_ns_per_query\": {:.0}, \"indexed_ns_per_query\": {:.0}, \"speedup\": {:.2}}}{}\n",
            r.label,
            json_escape(r.text),
            r.records,
            r.hits,
            r.scan_ns,
            r.indexed_ns,
            r.scan_ns / r.indexed_ns,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    // The bench binary runs from the workspace (cargo sets the crate's
    // manifest dir); the JSON lands at the repo root next to the other
    // trajectory artifacts.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_collection_query.json");
    std::fs::write(out, &json).expect("write BENCH_collection_query.json");
    println!("wrote {out}");
}
