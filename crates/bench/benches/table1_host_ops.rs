#![allow(missing_docs)]
//! E-T1 (Table 1): per-operation latency of the Host interface, plus
//! the autonomy-policy cost ablation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use legion::core::ObjectSpec;
use legion::hosts::{DomainRefusal, LoadCeiling, MemoryFloor, TimeOfDayWindow};
use legion::prelude::*;
use legion_bench::bench_bed;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_host_ops");
    let (tb, class) = bench_bed(1, 11);
    let host = tb.unix_hosts[0].clone();
    let vault = host.get_compatible_vaults()[0];
    let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(3600))
        .with_demand(1, 1);

    // Reservation management.
    g.bench_function("make_then_cancel_reservation", |b| {
        b.iter(|| {
            let tok = host.make_reservation(&req, tb.fabric.clock().now()).expect("grant");
            host.cancel_reservation(&tok).expect("cancel");
        });
    });
    // Minted once: criterion may re-invoke the closure, and repeated
    // setup mints would leak reservations until the host fills.
    let check_tok = host.make_reservation(&req, tb.fabric.clock().now()).expect("grant");
    g.bench_function("check_reservation", |b| {
        b.iter(|| host.check_reservation(&check_tok, tb.fabric.clock().now()).expect("status"));
    });
    host.cancel_reservation(&check_tok).expect("cancel");

    // Process management.
    g.bench_function("start_then_kill_object", |b| {
        b.iter(|| {
            let tok = host.make_reservation(&req, tb.fabric.clock().now()).expect("grant");
            let spec = ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance));
            let started = host.start_object(&tok, &[spec], tb.fabric.clock().now()).expect("start");
            host.kill_object(started[0]).expect("kill");
        });
    });
    g.bench_function("deactivate_reactivate_object", |b| {
        // Per-iteration setup: a pre-generated batch of objects would
        // exhaust the host's memory before the routine frees any.
        b.iter_batched(
            || {
                let mut spec = ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance));
                spec.memory_mb = 1;
                let tok =
                    host.make_reservation(&req, tb.fabric.clock().now()).expect("grant");
                host.start_object(&tok, &[spec], tb.fabric.clock().now()).expect("start")[0]
            },
            |obj| {
                let opr = host.deactivate_object(obj, tb.fabric.clock().now()).expect("save");
                host.reactivate_object(&opr, tb.fabric.clock().now()).expect("restore");
                host.kill_object(obj).expect("cleanup");
            },
            BatchSize::PerIteration,
        );
    });

    // Information reporting.
    g.bench_function("attributes_snapshot", |b| {
        b.iter(|| std::hint::black_box(host.attributes()));
    });
    g.bench_function("get_compatible_vaults", |b| {
        b.iter(|| std::hint::black_box(host.get_compatible_vaults()));
    });
    g.bench_function("vault_ok", |b| {
        b.iter(|| std::hint::black_box(host.vault_ok(vault)));
    });
    g.bench_function("reassess", |b| {
        b.iter(|| host.reassess(tb.fabric.clock().now()));
    });

    // Ablation: cost of the autonomy policy chain on the grant path.
    for (label, chain) in [("policy_chain_0", 0usize), ("policy_chain_4", 4)] {
        g.bench_function(label, |b| {
            let (tb2, class2) = bench_bed(1, 12);
            let h = tb2.unix_hosts[0].clone();
            if chain == 4 {
                h.add_policy(Arc::new(DomainRefusal::new(["spam.org"])));
                h.add_policy(Arc::new(LoadCeiling { max_load: 10.0 }));
                h.add_policy(Arc::new(TimeOfDayWindow { from_hour: 0, to_hour: 0 }));
                h.add_policy(Arc::new(MemoryFloor { min_free_mb: 1 }));
            }
            let v = h.get_compatible_vaults()[0];
            let r = ReservationRequest::instantaneous(
                class2,
                v,
                SimDuration::from_secs(3600),
            )
            .with_demand(1, 1)
            .from_domain("uva.edu");
            b.iter(|| {
                let tok = h.make_reservation(&r, tb2.fabric.clock().now()).expect("grant");
                h.cancel_reservation(&tok).expect("cancel");
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
