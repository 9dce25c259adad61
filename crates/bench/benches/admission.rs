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
//! gate exactly (`--override ...=0.0` in CI). Emits
//! `BENCH_admission.json` at the repo root. Run quick (CI smoke):
//! `cargo bench -p legion-bench --bench admission -- --quick`.

use legion::ingress::{ClassPolicy, PriorityClass};
use legion::prelude::*;
use legion::trace::SpanKind;
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
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1");
    let timing_runs = if quick { 2 } else { 6 };

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
    let p50_ms = wall_ms[wall_ms.len() / 2].max(1);

    let fairness = base.worst_fairness().expect("two tenants per class, none starved");
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

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"admission\",\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"timing_runs\": {timing_runs},\n"));
    json.push_str(
        "  \"scenario\": \"2x4 bed, 6 tenants (2 per class, Poisson + Pareto), tight \
         fair-use policies, 900 virtual s, rate sweep 1x/2x/4x\",\n",
    );
    for class in PriorityClass::ALL {
        let (p50, p95, p99) = place(class);
        json.push_str(&format!(
            "  \"headline_{}_p99_place_us\": {p99},\n",
            class.as_str()
        ));
        json.push_str(&format!(
            "  \"{0}_p50_place_us\": {p50},\n  \"{0}_p95_place_us\": {p95},\n",
            class.as_str()
        ));
    }
    json.push_str(&format!("  \"headline_goodput_fairness_ratio\": {fairness:.6},\n"));
    json.push_str(&format!("  \"run_wall_p50_ms\": {p50_ms},\n"));
    json.push_str("  \"results\": [\n");
    let mut rows: Vec<String> = Vec::new();
    for (class, ratio) in &base.fairness {
        if let Some(r) = ratio {
            rows.push(format!(
                "    {{\"metric\": \"{}_goodput_fairness\", \"value\": {r:.6}}}",
                class.as_str()
            ));
        }
    }
    for (scale, report) in &sweep {
        let m = &report.metrics;
        rows.push(format!(
            "    {{\"metric\": \"sweep_x{scale:.0}_submitted\", \"value\": {}}}",
            m.ingress_submitted
        ));
        rows.push(format!(
            "    {{\"metric\": \"sweep_x{scale:.0}_admitted\", \"value\": {}}}",
            m.ingress_admitted
        ));
        rows.push(format!(
            "    {{\"metric\": \"sweep_x{scale:.0}_rejected_rate\", \"value\": {}}}",
            m.ingress_rejected_rate
        ));
        rows.push(format!(
            "    {{\"metric\": \"sweep_x{scale:.0}_rejected_queue\", \"value\": {}}}",
            m.ingress_rejected_queue
        ));
        rows.push(format!(
            "    {{\"metric\": \"sweep_x{scale:.0}_completed\", \"value\": {}}}",
            m.ingress_completed
        ));
    }
    rows.push(format!(
        "    {{\"metric\": \"events_executed\", \"value\": {}}}",
        base.stats.events
    ));
    rows.push(format!("    {{\"metric\": \"run_wall_p50_ms\", \"value\": {p50_ms}}}"));
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_admission.json");
    std::fs::write(out, &json).expect("write BENCH_admission.json");
    println!("wrote {out}");
}
