#![allow(missing_docs)]
//! Closed-loop rebalance bench: a fixed, fully deterministic
//! skew-plus-crash scenario swept to convergence, repeated for timing.
//!
//! The scenario is the soak test's in miniature: ten 0.2-CPU objects
//! piled five-and-five on two hosts of a 3-domain x 4-host bed, the
//! closed-loop `Rebalancer` sweeping every 30s tick, with the hottest
//! host crashed mid-spread so the Watchdog's restart pile-up has to be
//! dissolved too. Every run uses the same seed, so the behavioural
//! headlines (sweeps to converge, migrations issued, wasted work) are
//! identical between `--quick` and full mode — only the number of
//! timing repetitions differs. Sweep latency is real wall-clock around
//! `Rebalancer::sweep`, with tracing enabled, as production would run.
//!
//! Emits `BENCH_rebalance.json` at the repo root. Run quick (CI smoke):
//! `cargo bench -p legion-bench --bench rebalance -- --quick`.

use legion::core::ObjectSpec;
use legion::prelude::*;
use std::time::Instant;

const SEED: u64 = 0x5EED_BA1A;
const MAX_SWEEPS: usize = 40;

struct RunStats {
    sweeps_to_converge: usize,
    migrations: u64,
    wasted: u64,
    rehomes: u64,
    restarts: u64,
    sweep_ns: Vec<u64>,
}

fn pile_on(tb: &Testbed, class: Loid, host_idx: usize, n: usize) {
    let h = &tb.unix_hosts[host_idx];
    let vault = h.get_compatible_vaults()[0];
    for _ in 0..n {
        let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(1 << 20))
            .with_demand(20, 48);
        let tok = h.make_reservation(&req, tb.fabric.clock().now()).expect("pile reservation");
        let spec = ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance));
        let obj = h.start_object(&tok, &[spec], tb.fabric.clock().now()).expect("pile start")[0];
        tb.fabric.lookup_class(class).unwrap().note_instance_location(obj, h.loid());
    }
}

/// One full scenario run: returns behavioural counts plus per-sweep
/// wall-clock latencies.
fn run_scenario() -> RunStats {
    let tb = Testbed::build(TestbedConfig::wide(3, 4, SEED));
    let class = tb.register_class("rb-bench", 20, 48);
    tb.fabric.enable_tracing();
    tb.tick(SimDuration::from_secs(1));
    pile_on(&tb, class, 0, 5);
    pile_on(&tb, class, 1, 5);

    let rb = Rebalancer::closed_loop(
        tb.fabric.clone(),
        tb.collection.clone(),
        RebalanceConfig::default(),
    );
    let dog = Watchdog::new(tb.fabric.clone(), 2);

    let mut sweep_ns = Vec::with_capacity(MAX_SWEEPS);
    let mut migrations = 0u64;
    let mut converged_at = MAX_SWEEPS;
    for sweep_no in 0..MAX_SWEEPS {
        tb.tick(SimDuration::from_secs(30));
        if sweep_no == 2 {
            // Fail-stop the hottest host mid-spread: the Watchdog will
            // pile its objects onto one acceptor, and later sweeps must
            // dissolve that pile too.
            tb.unix_hosts[0].crash();
        }
        let now = tb.fabric.clock().now();
        dog.patrol(now);
        let start = Instant::now();
        let report = rb.sweep(now);
        sweep_ns.push(start.elapsed().as_nanos() as u64);
        migrations += report.completed.len() as u64;
        let recovered = tb.fabric.metrics().snapshot().monitor_restarts > 0;
        if report.converged && recovered {
            converged_at = sweep_no + 1;
            break;
        }
    }
    let m = tb.fabric.metrics().snapshot();
    RunStats {
        sweeps_to_converge: converged_at,
        migrations,
        wasted: m.rebalance_rollbacks,
        rehomes: m.rebalance_rehomes,
        restarts: m.monitor_restarts,
        sweep_ns,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1");
    let runs = if quick { 3 } else { 20 };

    let first = run_scenario();
    assert!(
        first.sweeps_to_converge < MAX_SWEEPS,
        "scenario failed to converge within {MAX_SWEEPS} sweeps"
    );
    let mut all_ns: Vec<u64> = first.sweep_ns.clone();
    for _ in 1..runs {
        let rerun = run_scenario();
        // Determinism is the contract that makes quick and full modes
        // comparable: behaviour must not vary across repetitions.
        assert_eq!(rerun.sweeps_to_converge, first.sweeps_to_converge, "nondeterministic run");
        assert_eq!(rerun.migrations, first.migrations, "nondeterministic migrations");
        all_ns.extend(rerun.sweep_ns);
    }
    all_ns.sort_unstable();
    let p95_ns = all_ns[(all_ns.len() * 95 / 100).min(all_ns.len() - 1)];
    let p50_ns = all_ns[all_ns.len() / 2];

    println!(
        "rebalance: converged in {} sweeps, {} migrations ({} wasted, {} re-homed), \
         {} watchdog restarts; sweep p50 {} ns, p95 {} ns over {} sweeps x {} runs",
        first.sweeps_to_converge,
        first.migrations,
        first.wasted,
        first.rehomes,
        first.restarts,
        p50_ns,
        p95_ns,
        first.sweep_ns.len(),
        runs,
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"rebalance\",\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"timing_runs\": {runs},\n"));
    json.push_str(
        "  \"scenario\": \"3x4 bed, 5+5 skew of 0.2-CPU objects, hottest host crashed at sweep 3, swept to convergence\",\n",
    );
    json.push_str(&format!(
        "  \"headline_sweeps_to_converge\": {},\n",
        first.sweeps_to_converge
    ));
    json.push_str(&format!("  \"headline_migrations_issued\": {},\n", first.migrations));
    json.push_str(&format!("  \"headline_wasted_migrations\": {},\n", first.wasted));
    json.push_str(&format!("  \"headline_p95_sweep_ns\": {p95_ns},\n"));
    json.push_str("  \"results\": [\n");
    json.push_str(&format!(
        "    {{\"metric\": \"sweeps_to_converge\", \"value\": {}}},\n",
        first.sweeps_to_converge
    ));
    json.push_str(&format!(
        "    {{\"metric\": \"migrations_issued\", \"value\": {}}},\n",
        first.migrations
    ));
    json.push_str(&format!(
        "    {{\"metric\": \"wasted_migrations\", \"value\": {}}},\n",
        first.wasted
    ));
    json.push_str(&format!("    {{\"metric\": \"rehomed_migrations\", \"value\": {}}},\n", first.rehomes));
    json.push_str(&format!("    {{\"metric\": \"watchdog_restarts\", \"value\": {}}},\n", first.restarts));
    json.push_str(&format!("    {{\"metric\": \"sweep_p50_ns\", \"value\": {p50_ns}}},\n"));
    json.push_str(&format!("    {{\"metric\": \"sweep_p95_ns\", \"value\": {p95_ns}}}\n"));
    json.push_str("  ]\n}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rebalance.json");
    std::fs::write(out, &json).expect("write BENCH_rebalance.json");
    println!("wrote {out}");
}
