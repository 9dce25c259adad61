#![allow(missing_docs)]
//! Simulation-harness throughput: the 1000-episode chaos soak as pure
//! discrete events.
//!
//! The scenario is `tests/sim_determinism.rs`'s scale test: a 3x4 bed,
//! 1000 placement episodes arriving 3s of virtual time apart, full
//! chaos (host churn + partitions), wire emulation on — so every
//! metered message parks its episode for the link latency in *virtual*
//! time. Under the scoped-thread path those waits would be real sleeps;
//! here the whole hour of simulated operation is CPU-bound, and the
//! headline is how many episodes (and raw events) the scheduler turns
//! over per wall-clock second.
//!
//! Behaviour is seed-deterministic, so `--quick` and full mode differ
//! only in timing repetitions and the behavioural headlines gate
//! exactly. Emits `BENCH_sim_soak.json` at the repo root. Run quick
//! (CI smoke): `cargo bench -p legion-bench --bench sim_soak -- --quick`.

use legion::prelude::*;
use legion_bench::harness::{percentile, quick, BenchReport, Better};
use std::time::Instant;

const SEED: u64 = 0x51D0_BEEF;
const EPISODES: usize = 1000;

fn config() -> SimSoakConfig {
    let mut cfg = SimSoakConfig::seeded(SEED)
        .with_episodes(EPISODES, SimDuration::from_secs(3));
    // Throughput headline: measure the scheduler, not the trace export.
    cfg.trace = false;
    cfg
}

fn main() {
    let runs = if quick() { 2 } else { 8 };

    let cfg = config();
    let mut wall_ms: Vec<u64> = Vec::with_capacity(runs);
    let start = Instant::now();
    let first = run_chaos_soak(&cfg).expect("sim soak run");
    wall_ms.push(start.elapsed().as_millis() as u64);
    assert!(
        first.completed >= 950 && first.completed * 100 >= first.submitted * 95,
        "completion collapsed: only {}/{} episodes completed",
        first.completed,
        first.submitted
    );
    for _ in 1..runs {
        let start = Instant::now();
        let rerun = run_chaos_soak(&cfg).expect("sim soak rerun");
        wall_ms.push(start.elapsed().as_millis() as u64);
        // Determinism is the contract that makes quick and full modes
        // comparable: behaviour must not vary across repetitions.
        assert_eq!(rerun.completed, first.completed, "nondeterministic completions");
        assert_eq!(rerun.failed, first.failed, "nondeterministic failures");
        assert_eq!(rerun.stats, first.stats, "nondeterministic event schedule");
    }
    wall_ms.sort_unstable();
    let p50_ms = percentile(&wall_ms, 0.5).max(1);
    let episodes_per_sec = EPISODES as u64 * 1000 / p50_ms;
    let events_per_sec = first.stats.events * 1000 / p50_ms;

    println!(
        "sim_soak: {}/{} episodes completed, {} events, {} virtual s simulated; \
         p50 {} ms/run over {} runs = {} episodes/s, {} events/s",
        first.completed,
        first.submitted,
        first.stats.events,
        first.stats.end.as_micros() / 1_000_000,
        p50_ms,
        runs,
        episodes_per_sec,
        events_per_sec,
    );

    let mut report = BenchReport::new("sim_soak");
    report
        .param("seed", SEED)
        .param("timing_runs", runs)
        .param(
            "scenario",
            "3x4 bed, 1000 episodes 3s apart, churn + partitions, wire emulation, \
             discrete-event scheduler",
        )
        .headline(
            "headline_episodes_throughput_per_sec",
            episodes_per_sec,
            "1/s",
            Better::Higher,
            0.75,
        )
        .headline("headline_run_wall_ms", p50_ms, "ms", Better::Lower, 5.0)
        .headline("headline_completed_episodes", first.completed, "count", Better::Higher, 0.0)
        .metric("episodes_submitted", first.submitted)
        .metric("episodes_completed", first.completed)
        .metric("episodes_failed", first.failed)
        .metric("faults_injected", first.metrics.faults_injected)
        .metric("events_executed", first.stats.events)
        .metric("tasks_spawned", first.stats.tasks)
        .metric("virtual_secs_simulated", first.stats.end.as_micros() / 1_000_000)
        .metric("episodes_per_sec", episodes_per_sec)
        .metric("events_per_sec", events_per_sec)
        .metric("run_wall_p50_ms", p50_ms);
    report.write();
}
