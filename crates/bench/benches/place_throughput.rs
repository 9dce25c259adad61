#![allow(missing_docs)]
//! Placement throughput: (A) serial vs batched bulk placement — 32
//! placement requests run one-by-one through `ScheduleDriver::place`
//! vs pipelined 8 wide through `place_many` — and (B) steady-state
//! scheduling over a large churning Collection with the
//! epoch-validated candidate cache off vs on.
//!
//! Part A runs under the fabric's wire-latency emulation
//! (`Fabric::set_wire_emulation`): every metered message blocks its
//! calling thread for 1/100th of its simulated latency in real time, so
//! a 40 ms inter-domain reservation round-trip costs 400 µs of genuine
//! wall-clock wait — as it would against a real WAN. Looped `place`
//! pays those waits back-to-back, while `place_many` workers overlap
//! them. Both arms pay the same emulated latency, so the comparison is
//! fair even on a single-core machine (waiting threads overlap
//! regardless of core count). Hosts also carry preloaded reservation
//! tables (`Testbed::preload_reservations`) so admission does realistic
//! overlap-scan work rather than probing empty tables.
//!
//! Emits `BENCH_place_throughput.json` at the repo root. Run quick (CI
//! smoke): `cargo bench -p legion-bench --bench place_throughput --
//! --quick`.

use legion::collection::MemberCredential;
use legion::core::host::well_known;
use legion::core::LoidKind;
use legion::prelude::*;
use legion::schedulers::{DriverReport, PlacementSpec, RandomScheduler, Scheduler};
use legion_bench::harness::{fixed, median_ns, quick, BenchReport, Better};
use std::sync::Arc;

/// Real nanoseconds slept per simulated microsecond of link latency:
/// 1/100 real time, so the testbed's 40 ms inter-domain RTT emulates as
/// a 400 µs thread-blocking wait.
const WIRE_NS_PER_SIM_US: u64 = 10;
const _: () = assert!(WIRE_NS_PER_SIM_US > 0, "wire emulation must stay on");

/// One tier: the `before` and `after` arm's median ns per cycle.
struct Row {
    part: &'static str,
    label: &'static str,
    before_ns: f64,
    after_ns: f64,
}

/// Part A: 32 two-instance placement requests, looped `place` vs
/// `place_many(.., 8)`. Placed objects are killed after each cycle so
/// capacity returns; the consumed reservations die and autocompaction
/// keeps tables near their preloaded size.
fn bulk_place(preload: usize, samples: usize, target_ms: f64) -> Row {
    let tb = Testbed::build(TestbedConfig::wide(4, 8, 777));
    let class = tb.register_class("bulk", 5, 16);
    tb.tick(SimDuration::from_secs(1));
    tb.preload_reservations(preload, class);
    // Placement is reservation-dominated (one wide-area round per
    // mapping); emulate the wire for the whole measured region. The
    // kill_object cleanup is a direct host call and meters no messages.
    tb.fabric.set_wire_emulation(WIRE_NS_PER_SIM_US);

    let scheduler = RandomScheduler::new(99);
    let enactor = Enactor::new(tb.fabric.clone());
    let driver = ScheduleDriver::new(std::sync::Arc::new(scheduler), std::sync::Arc::new(enactor));
    let ctx = tb.ctx();
    let specs: Vec<PlacementSpec> = (0..32).map(|_| PlacementSpec::of(class, 2)).collect();

    let cleanup = |reports: &[Result<DriverReport, LegionError>]| -> usize {
        let mut placed = 0;
        for r in reports.iter().flatten() {
            for (m, inst) in &r.placed {
                placed += 1;
                if let Some(h) = tb.fabric.lookup_host(m.host) {
                    let _ = h.kill_object(*inst);
                }
            }
        }
        placed
    };

    let before_ns = median_ns(samples, target_ms, || {
        let reports = driver.place_many(&specs, &ctx, 1);
        cleanup(&reports)
    });
    let after_ns = median_ns(samples, target_ms, || {
        let reports = driver.place_many(&specs, &ctx, 8);
        cleanup(&reports)
    });
    Row { part: "place_many", label: "32 placements, looped place vs 8 workers", before_ns, after_ns }
}

/// How many schedules run against each churn event in the steady tier:
/// the amortization window the cache exploits (one patch or recompute,
/// then epoch-validated hits for the rest of the batch).
const SCHEDULES_PER_CHURN: usize = 8;

fn steady_attrs(vault: Loid, memory_mb: i64) -> legion::core::AttributeDb {
    legion::core::AttributeDb::new()
        .with(well_known::ARCH, "mips")
        .with(well_known::OS_NAME, "IRIX")
        .with(well_known::MEMORY_MB, memory_mb)
        .with(
            well_known::COMPATIBLE_VAULTS,
            AttrValue::List(vec![AttrValue::Str(vault.to_string())]),
        )
}

/// Part B: steady-state scheduling over a `records`-strong synthetic
/// Collection with `churn_pct`% of records refreshed (pull-daemon
/// style `replace`) before each batch of [`SCHEDULES_PER_CHURN`]
/// schedules. Before arm: candidate cache disabled, so every schedule
/// pays the full indexed query plus per-record candidate
/// materialization. After arm: the epoch-validated cache patches
/// once from the delta log and serves the rest of the batch by epoch
/// compare. Schedules only — enactment is part A's subject; this
/// tier isolates the Fig. 7 "query the Collection" step the cache
/// amortizes.
fn cached_steady(
    records: usize,
    churn_pct: usize,
    part: &'static str,
    label: &'static str,
    samples: usize,
    target_ms: f64,
) -> Row {
    let tb = Testbed::build(TestbedConfig::local(4, 31337));
    let class = tb.register_class("steady", 25, 64);
    tb.tick(SimDuration::from_secs(1));

    // The scheduled-over population is synthetic: `records` member
    // descriptions in a dedicated Collection (the testbed only provides
    // the fabric and the registered class).
    let collection = Collection::new(tb.fabric.mint(LoidKind::Service), 0x57EAD);
    collection.enable_deltas(16_384);
    let vault = tb.vault_loids[0];
    let creds: Vec<MemberCredential> = (0..records)
        .map(|i| {
            collection.join_with(
                Loid::synthetic(LoidKind::Host, 10_000 + i as u64),
                steady_attrs(vault, 256 + (i % 8) as i64 * 64),
                SimTime::ZERO,
            )
        })
        .collect();

    let scheduler = RandomScheduler::new(4242);
    let request = PlacementRequest::new().class(class, 2);
    let churn = (records * churn_pct / 100).max(1);

    let mut tick = 0u64;
    let mut offset = 0usize;
    let mut run = |cache_on: bool| -> f64 {
        let ctx = SchedCtx::new(tb.fabric.clone(), Arc::clone(&collection));
        ctx.set_candidate_cache_enabled(cache_on);
        let ns = median_ns(samples, target_ms, || {
            tick += 1;
            let t = SimTime::from_secs(tick);
            // Refresh a rotating churn window, as the pull daemon would.
            for k in 0..churn {
                let i = (offset + k) % records;
                collection
                    .replace(&creds[i], steady_attrs(vault, 256 + (tick % 8) as i64 * 64), t)
                    .expect("member present");
            }
            offset = (offset + churn) % records;
            let mut mapped = 0usize;
            for _ in 0..SCHEDULES_PER_CHURN {
                let sched = scheduler.compute_schedule(&request, &ctx).expect("schedules");
                mapped += sched.schedules[0].master.len();
            }
            mapped
        });
        if cache_on {
            let stats = ctx.candidate_cache_stats();
            assert!(stats.hits > 0, "steady tier never hit the cache: {stats:?}");
            if churn <= records / 4 {
                assert!(stats.patched > 0, "within-budget churn never patched: {stats:?}");
            }
        }
        ns
    };
    let before_ns = run(false);
    let after_ns = run(true);
    Row { part, label, before_ns, after_ns }
}

fn main() {
    let quick = quick();
    let (samples, target_ms, preload) = if quick { (5, 5.0, 128) } else { (15, 60.0, 512) };
    let steady_records = if quick { 2_000 } else { 10_000 };

    let rows = [
        bulk_place(preload, samples, target_ms),
        cached_steady(
            steady_records,
            5,
            "cached_steady",
            "steady state, 5% churn per 8-schedule batch: uncached query vs candidate cache",
            samples,
            target_ms,
        ),
        cached_steady(
            steady_records,
            50,
            "cached_steady_highchurn",
            "steady state, 50% churn per 8-schedule batch: over patch budget, recompute fallback",
            samples,
            target_ms,
        ),
    ];
    for r in &rows {
        println!(
            "place_throughput/{}: before {:>12.0} ns, after {:>12.0} ns, speedup {:>6.2}x  ({})",
            r.part,
            r.before_ns,
            r.after_ns,
            r.before_ns / r.after_ns,
            r.label,
        );
        assert!(r.before_ns > 0.0 && r.after_ns > 0.0, "{}: zero-length cycle", r.part);
    }
    let place_many_speedup = rows[0].before_ns / rows[0].after_ns;
    let cached_steady_speedup = rows[1].before_ns / rows[1].after_ns;
    assert!(
        cached_steady_speedup >= 3.0,
        "candidate cache steady-state tier must hold >= 3x at {steady_records} records / 5% churn, \
         got {cached_steady_speedup:.2}x"
    );

    let mut report = BenchReport::new("place_throughput");
    report
        .param("samples_per_measurement", samples)
        .param("preload_reservations_per_host", preload)
        .param("wire_emulation_ns_per_sim_us", WIRE_NS_PER_SIM_US)
        .param(
            "before",
            "serial: looped ScheduleDriver::place, emulated WAN waits paid back-to-back",
        )
        .param(
            "after",
            "parallel: place_many with 8 workers, same emulated WAN waits overlapped",
        )
        .param("steady_records", steady_records)
        .param("steady_schedules_per_churn", SCHEDULES_PER_CHURN)
        .headline(
            "headline_place_many_32x8_speedup",
            fixed(place_many_speedup, 2),
            "x",
            Better::Higher,
            0.5,
        )
        .headline(
            "headline_cached_place_steady_speedup",
            fixed(cached_steady_speedup, 2),
            "x",
            Better::Higher,
            0.75,
        );
    for r in &rows {
        report.row(vec![
            ("part", r.part.into()),
            ("label", r.label.into()),
            ("before_ns_per_cycle", fixed(r.before_ns, 0)),
            ("after_ns_per_cycle", fixed(r.after_ns, 0)),
            ("speedup", fixed(r.before_ns / r.after_ns, 2)),
        ]);
    }
    report.write();
}
