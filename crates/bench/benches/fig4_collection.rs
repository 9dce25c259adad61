#![allow(missing_docs)]
//! E-F4 (Fig. 4): Collection query throughput vs records and query
//! complexity, plus update (push) and pull-sweep costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use legion::collection::Collection;
use legion::core::{AttrValue, AttributeDb, Loid, LoidKind, SimTime};

/// A synthetic collection of `n` host-shaped records.
fn synthetic_collection(n: usize) -> std::sync::Arc<Collection> {
    let c = Collection::new(Loid::synthetic(LoidKind::Service, 9), 9);
    for i in 0..n {
        let attrs = AttributeDb::new()
            .with("host_name", format!("h{i}"))
            .with("host_os_name", if i % 3 == 0 { "IRIX" } else { "Linux" })
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

const QUERIES: &[(&str, &str)] = &[
    ("simple_cmp", "$host_load < 1.0"),
    ("regex_match", r#"match($host_os_name, "IRIX") and match("5\..*", $host_os_version)"#),
    (
        "complex_boolean",
        r#"($host_arch == "mips" and $host_os_name == "IRIX") or ($host_memory_mb >= 1024 and not $host_load > 1.5) and exists($host_compatible_vaults)"#,
    ),
];

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_collection");
    for &n in &[100usize, 1000, 10_000] {
        let coll = synthetic_collection(n);
        g.throughput(Throughput::Elements(n as u64));
        for (label, q) in QUERIES {
            g.bench_with_input(
                BenchmarkId::new(*label, n),
                &coll,
                |b, coll| {
                    // Pre-compile once, as Schedulers do.
                    let compiled = legion::collection::parse_query(q).expect("valid query");
                    b.iter(|| std::hint::black_box(coll.query_parsed(&compiled).len()));
                },
            );
        }
        g.bench_with_input(BenchmarkId::new("parse_and_query", n), &coll, |b, coll| {
            b.iter(|| std::hint::black_box(coll.query(QUERIES[1].1).expect("ok").len()));
        });
    }

    // Push update cost (one record).
    let coll = synthetic_collection(1000);
    let cred = coll.join_with(
        Loid::synthetic(LoidKind::Host, 999_999),
        AttributeDb::new(),
        SimTime::ZERO,
    );
    g.bench_function("push_update_one_record", |b| {
        let attrs = AttributeDb::new().with("host_load", 0.7).with("host_free_memory_mb", 64i64);
        b.iter(|| coll.update(&cred, &attrs, SimTime::ZERO).expect("authorized"));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
