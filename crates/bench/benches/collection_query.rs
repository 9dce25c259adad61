#![allow(missing_docs)]
//! Collection query engine: indexed planner vs linear scan, at 100 /
//! 1k / 10k records, across selective and non-selective queries.
//!
//! Emits `BENCH_collection_query.json` at the repo root with before
//! (`query_scan`, the pre-index linear scan) and after
//! (`query_parsed`, the planned path) numbers side by side, timed by
//! the harness's calibrate/warm-up/median timer.
//!
//! Run quick (CI smoke): `cargo bench -p legion-bench --bench
//! collection_query -- --quick`.

use legion::collection::{parse_query, Collection, Query};
use legion::core::{AttrValue, AttributeDb, Loid, LoidKind, SimTime};
use legion_bench::harness::{fixed, median_ns, quick, BenchReport, Better};
use std::sync::Arc;

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

struct Row {
    label: &'static str,
    text: &'static str,
    records: usize,
    hits: usize,
    scan_ns: f64,
    indexed_ns: f64,
}

fn main() {
    let (samples, target_ms) = if quick() { (5, 2.0) } else { (15, 20.0) };
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

    let mut report = BenchReport::new("collection_query");
    report
        .param("samples_per_measurement", samples)
        .param("before", "query_scan: the pre-index linear scan over every record")
        .param("after", "query_parsed: planner + secondary indexes, scan fallback")
        .headline(
            "headline_selective_eq_10k_speedup",
            fixed(headline_speedup, 2),
            "x",
            Better::Higher,
            0.5,
        );
    for r in &rows {
        report.row(vec![
            ("query", r.label.into()),
            ("text", r.text.into()),
            ("records", r.records.into()),
            ("hits", r.hits.into()),
            ("scan_ns_per_query", fixed(r.scan_ns, 0)),
            ("indexed_ns_per_query", fixed(r.indexed_ns, 0)),
            ("speedup", fixed(r.scan_ns / r.indexed_ns, 2)),
        ]);
    }
    report.write();
}
