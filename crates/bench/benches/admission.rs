#![allow(missing_docs)]
//! Multi-tenant front-door admission: placement latency per priority
//! class and tenant-goodput fairness under a deterministic
//! arrival-rate sweep.
//!
//! The scenario is `legion_apps::run_ingress_sim`'s default six-tenant
//! population (Poisson and heavy-tailed arrivals, two tenants per
//! class) on a 2x4 bed, with fair-use policies tight enough that every
//! class overdrives its token bucket at the base rate. The sweep runs
//! the same population at 1x, 2x and 4x arrival rate; the headline
//! latencies (p50/p95/p99 of the whole placement episode, per class,
//! from the `legion-trace` rollups) and the max/min tenant-goodput
//! fairness ratio come from the 1x run.
//!
//! Everything is virtual-time and seed-deterministic, so quick and full
//! modes differ only in wall-clock timing repetitions and the headlines
//! declare an exact (0.0) gate tolerance. Emits
//! `BENCH_admission.json` at the repo root. Run quick (CI smoke):
//! `cargo bench -p legion-bench --bench admission -- --quick`.

use legion::ingress::{ClassPolicy, PriorityClass};
use legion::prelude::*;
use legion::trace::SpanKind;
use legion_bench::harness::{fixed, percentile, quick, BenchReport, Better};
use std::time::Instant;

const SEED: u64 = 0xAD_0115;

/// Policies the default population actually overdrives: the Interactive
/// pair arrives at 0.5/s each against a 0.25/s sustained rate.
fn scenario(scale: f64) -> IngressSimConfig {
    let mut cfg = IngressSimConfig::seeded(SEED);
    cfg.horizon = SimDuration::from_secs(900);
    cfg.ingress.policies = [
        ClassPolicy { rate_per_sec: 0.25, burst: 4, queue_capacity: 4 },
        ClassPolicy { rate_per_sec: 0.15, burst: 4, queue_capacity: 8 },
        ClassPolicy { rate_per_sec: 0.10, burst: 8, queue_capacity: 16 },
    ];
    cfg.rate_scaled(scale)
}

fn main() {
    let timing_runs = if quick() { 2 } else { 6 };

    // The deterministic arrival-rate sweep: same population, same seed,
    // rates scaled 1x / 2x / 4x.
    let scales = [1.0f64, 2.0, 4.0];
    let mut sweep: Vec<(f64, IngressSimReport)> = Vec::new();
    let mut wall_ms: Vec<u64> = Vec::with_capacity(timing_runs);
    for &scale in &scales {
        let cfg = scenario(scale);
        let start = Instant::now();
        let report = run_ingress_sim(&cfg).expect("admission sim run");
        if scale == 1.0 {
            wall_ms.push(start.elapsed().as_millis() as u64);
        }
        sweep.push((scale, report));
    }
    let base = &sweep[0].1;

    // Determinism is the contract that lets the headlines gate exactly:
    // re-running the base scale must reproduce it byte for byte.
    for _ in 1..timing_runs {
        let cfg = scenario(1.0);
        let start = Instant::now();
        let rerun = run_ingress_sim(&cfg).expect("admission sim run");
        wall_ms.push(start.elapsed().as_millis() as u64);
        assert_eq!(rerun.stats, base.stats, "nondeterministic event schedule");
        assert_eq!(rerun.metrics, base.metrics, "nondeterministic ledger");
        assert!(rerun.trace_json == base.trace_json, "nondeterministic trace");
    }
    wall_ms.sort_unstable();
    let p50_ms = percentile(&wall_ms, 0.5).max(1);

    let fairness = base.worst_fairness().expect("two tenants per class, none starved");
    assert!(fairness >= 1.0, "impossible max/min goodput ratio {fairness}");
    let (x1, x4) = (sweep[0].1.metrics.ingress_admitted, sweep[2].1.metrics.ingress_admitted);
    assert!(
        x4 as f64 <= x1 as f64 * 1.2,
        "4x arrival rate blew through the buckets: {x1} -> {x4} admitted"
    );
    let place = |class: PriorityClass| {
        let h = base.class_rollups[class.index()].histogram(SpanKind::Episode);
        (h.p50_us(), h.p95_us(), h.p99_us())
    };

    println!("admission: scale 1x over {}s virtual:", 900);
    for t in &base.tenants {
        println!(
            "  {:<12} {:>11} submitted {:>4}, admitted {:>4}, rejected {:>4}, completed {:>4}",
            t.name,
            t.class.as_str(),
            t.stats.submitted,
            t.stats.admitted,
            t.stats.rejected(),
            t.stats.completed,
        );
    }
    println!("  goodput fairness (worst class) = {fairness:.4}, p50 wall {p50_ms} ms/run");

    let mut report = BenchReport::new("admission");
    report.param("seed", SEED).param("timing_runs", timing_runs).param(
        "scenario",
        "2x4 bed, 6 tenants (2 per class, Poisson + Pareto), tight fair-use policies, \
         900 virtual s, rate sweep 1x/2x/4x",
    );
    for class in PriorityClass::ALL {
        let name = match class {
            PriorityClass::Interactive => "headline_interactive_p99_place_us",
            PriorityClass::Production => "headline_production_p99_place_us",
            PriorityClass::BestEffort => "headline_besteffort_p99_place_us",
        };
        let (p50, p95, p99) = place(class);
        report
            .headline(name, p99, "us", Better::Lower, 0.0)
            .metric(format_args!("{}_p50_place_us", class.as_str()), p50)
            .metric(format_args!("{}_p95_place_us", class.as_str()), p95);
    }
    report.headline(
        "headline_goodput_fairness_ratio",
        fixed(fairness, 6),
        "ratio",
        Better::Lower,
        0.0,
    );
    for (class, ratio) in &base.fairness {
        if let Some(r) = ratio {
            report.metric(format_args!("{}_goodput_fairness", class.as_str()), fixed(*r, 6));
        }
    }
    for (scale, run) in &sweep {
        let m = &run.metrics;
        report
            .metric(format_args!("sweep_x{scale:.0}_submitted"), m.ingress_submitted)
            .metric(format_args!("sweep_x{scale:.0}_admitted"), m.ingress_admitted)
            .metric(format_args!("sweep_x{scale:.0}_rejected_rate"), m.ingress_rejected_rate)
            .metric(format_args!("sweep_x{scale:.0}_rejected_queue"), m.ingress_rejected_queue)
            .metric(format_args!("sweep_x{scale:.0}_completed"), m.ingress_completed);
    }
    report.metric("events_executed", base.stats.events).metric("run_wall_p50_ms", p50_ms);
    report.write();
}
