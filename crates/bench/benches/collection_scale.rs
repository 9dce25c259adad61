#![allow(missing_docs)]
//! Collection at scale: the sharded store, trigram-indexed regex, and
//! exact-plan skip measured at 100k (and, in full mode, 1M) records.
//!
//! Emits `BENCH_collection_scale.json` at the repo root with the
//! scan-vs-indexed numbers for the paper-anchored regex conjunction
//! (`^IRIX$` and `^5\.`), a trigram-narrowed unanchored `match`, and a
//! selective equality fanned out across the default shard set. Quick
//! mode (CI smoke) runs the same 100k measurements the gate compares;
//! the 1M rows are full-mode only.
//!
//! Run quick: `cargo bench -p legion-bench --bench collection_scale --
//! --quick`.

use legion::collection::{parse_query, Collection, Query};
use legion::core::{AttributeDb, Loid, LoidKind, SimTime};
use legion_bench::harness::{fixed, median_ns, quick, BenchReport, Better};
use std::sync::Arc;
use std::time::Instant;

/// A synthetic fleet of `n` hosts. `HPUX` appears on 1% of hosts,
/// `IRIX` on a third, and version `5.3` on every tenth host, so the
/// paper's `IRIX and 5.x` conjunction selects ~3% — selective enough to
/// showcase the index, populous enough that the result set is real.
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
            .with("host_os_name", os)
            .with("host_os_version", if i % 10 == 0 { "5.3" } else { "6.5" })
            .with("host_load", (i % 100) as f64 / 50.0)
            .with("host_domain", format!("site{}.edu", i % 16));
        c.join_with(Loid::synthetic(LoidKind::Host, i as u64), attrs, SimTime::ZERO);
    }
    c
}

/// (label, query text). All three run against the default-sharded
/// collection; `shard_fanout` is the equality probe every shard
/// answers from its own index before the merge.
const QUERIES: &[(&str, &str)] = &[
    (
        "paper_anchored",
        r#"match("^IRIX$", $host_os_name) and match("^5\.", $host_os_version)"#,
    ),
    ("trigram_contains", r#"match("PUX", $host_os_name)"#),
    ("shard_fanout", r#"$host_os_name == "HPUX""#),
    ("non_selective_range", "$host_load >= 0.0"),
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
    let quick = quick();
    let (samples, target_ms) = if quick { (5, 2.0) } else { (15, 20.0) };
    // Quick mode runs the same 100k scale the gate's headlines compare;
    // the 1M tier is full-mode only.
    let sizes: &[usize] = if quick { &[100_000] } else { &[100_000, 1_000_000] };

    let mut rows: Vec<Row> = Vec::new();
    for &n in sizes {
        let build_start = Instant::now();
        let coll = synthetic_collection(n);
        println!(
            "collection_scale: built {n} records across {} shards in {:.2}s",
            coll.shard_count(),
            build_start.elapsed().as_secs_f64()
        );
        for (label, text) in QUERIES {
            let q: Query = parse_query(text).expect("valid query");
            let indexed_hits = coll.query_parsed(&q);
            let scan_hits = coll.query_scan(&q);
            assert_eq!(indexed_hits, scan_hits, "paths must agree exactly");
            let hits = indexed_hits.len();
            drop((indexed_hits, scan_hits));
            let scan_ns = median_ns(samples, target_ms, || coll.query_scan(&q).len());
            let indexed_ns = median_ns(samples, target_ms, || coll.query_parsed(&q).len());
            println!(
                "collection_scale/{label}/{n}: scan {scan_ns:>13.0} ns, indexed {indexed_ns:>13.0} ns, speedup {:>8.2}x ({hits} hits)",
                scan_ns / indexed_ns
            );
            rows.push(Row { label, text, records: n, hits, scan_ns, indexed_ns });
        }
    }

    let speedup_at = |label: &str, records: usize| {
        let r = rows
            .iter()
            .find(|r| r.label == label && r.records == records)
            .expect("headline row");
        r.scan_ns / r.indexed_ns
    };
    // Headlines all come from the 100k tier so quick (CI) and full
    // (committed baseline) modes measure the same thing.
    let paper = speedup_at("paper_anchored", 100_000);
    let trigram = speedup_at("trigram_contains", 100_000);
    let fanout = speedup_at("shard_fanout", 100_000);
    println!(
        "\nheadlines @ 100k: paper_anchored {paper:.1}x, trigram_contains {trigram:.1}x, shard_fanout {fanout:.1}x"
    );
    assert!(
        paper >= 20.0,
        "acceptance: paper-anchored regex must be ≥20x vs scan at 100k (got {paper:.1}x)"
    );

    let mut report = BenchReport::new("collection_scale");
    report
        .param("samples_per_measurement", samples)
        .param("before", "query_scan: linear scan with per-record regex evaluation")
        .param(
            "after",
            "query_parsed: sharded trigram/prefix indexes, sorted-ID intersection, exact-plan skip",
        )
        .headline("headline_paper_anchored_100k_speedup", fixed(paper, 2), "x", Better::Higher, 0.5)
        .headline(
            "headline_trigram_contains_100k_speedup",
            fixed(trigram, 2),
            "x",
            Better::Higher,
            0.75,
        )
        .headline(
            "headline_shard_fanout_100k_speedup",
            fixed(fanout, 2),
            "x",
            Better::Higher,
            0.75,
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
