//! Wall-clock benchmark of the legion-rms placement path.
//!
//! ```text
//! perfbench --workload <wide_steady|coalloc_contended|overload_batched|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace
//! 1` alternates untraced and traced replays of the same arrivals and
//! reports per-layer metrics from the spans. Human-readable lines come
//! first; the last line of standard output is one JSON object. Any
//! failed output check prints the reason to standard error and exits 1
//! without a result. See README.md for the metrics and workloads.

mod bed;
mod calibrate;
mod replay;
mod spans;

use bed::{Bed, Spec};
use replay::{replay, Counts, Direct, Outcome, Traced};
use spans::Span;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every run makes at least this many replays, whatever `--seconds` says.
const MIN_REPLAYS: usize = 3;
/// Passes of the calibration reference timed before every replay.
const REFERENCE_PASSES: usize = 3;
/// Client calls the latency percentiles are taken over, at least: twenty
/// samples lie beyond p99.
const P99_CALLS: usize = 2000;
/// Traced runs must explain their wall time to within this share:
/// `|1 - sum of layer self times / traced wall| <= bound`.
const UNATTRIBUTED_BOUND: f64 = 0.15;
/// Where the traced run writes its spans (relative to the working directory).
const SPAN_DIR: &str = ".bench_build/perfbench-spans";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 3600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The `q` quantile of `values`, interpolating linearly between ranks.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process, in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Output checks every replay must pass: the client's tally and the
/// ledger agree, and every admitted request ended placed or failed.
fn check_replay(spec: &Spec, arrivals: usize, out: &Outcome) -> Result<(), String> {
    let c = &out.counts;
    let l = &out.ledger;
    let fail = |what: String| Err(format!("{}: {what}", spec.name));
    if c.submitted != arrivals as u64 {
        return fail(format!("{} of {arrivals} arrivals submitted", c.submitted));
    }
    if c.submitted != c.refused + c.placed + c.failed {
        return fail(format!(
            "submitted {} != refused {} + placed {} + failed {}",
            c.submitted, c.refused, c.placed, c.failed
        ));
    }
    if l.ingress_admitted != l.ingress_completed + l.ingress_failed {
        return fail(format!(
            "ledger admitted {} != completed {} + failed {}",
            l.ingress_admitted, l.ingress_completed, l.ingress_failed
        ));
    }
    let ledger_refused =
        l.ingress_rejected_rate + l.ingress_rejected_queue + l.ingress_rejected_saturated;
    if (l.ingress_submitted, l.ingress_completed, l.ingress_failed, ledger_refused)
        != (c.submitted, c.placed, c.failed, c.refused)
    {
        return fail(format!("client tally {c:?} disagrees with the ledger {l:?}"));
    }
    Ok(())
}

/// Same-seed replays must reproduce their counts byte for byte.
fn check_same_counts(spec: &Spec, what: &str, a: &Counts, b: &Counts) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{}: {what} differ: {a:?} vs {b:?}", spec.name))
    }
}

fn build_timed(spec: &Spec, seed: u64) -> (Bed, Duration) {
    let t0 = Instant::now();
    let bed = Bed::build(spec, seed);
    (bed, t0.elapsed())
}

/// End-to-end run: fresh bed per replay, replays until `seconds` of
/// replay wall time are measured.
///
/// Timings come from the fastest tenth of the replays, or from enough of
/// the fastest to pool `P99_CALLS` client calls if that is more. Every
/// replay does the same work (same seed, same counts, checked), so
/// ranking them by time ranks the machine's speed while each ran; the
/// fastest skip the short slow phases of a shared machine. The
/// reference work is timed before every replay, and its fastest tenth
/// rescales the timings to a machine of nominal speed, which takes out
/// the phases that outlast a run (see `calibrate`).
fn run_e2e(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let arrivals = bed::draw_arrivals(spec, seed);
    // The selection pools at least P99_CALLS client calls and is at
    // most a quarter of the replays.
    let calls = arrivals.len().div_ceil(spec.batch);
    let min_fast = P99_CALLS.div_ceil(calls);
    let (mut references, mut setups) = (Vec::new(), Vec::new());
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut measured = Duration::ZERO;
    let min_replays = (4 * min_fast).max(MIN_REPLAYS);
    let mut rss_mb = 0.0;
    while outcomes.len() < min_replays || measured.as_secs_f64() < seconds {
        for _ in 0..REFERENCE_PASSES {
            references.push(calibrate::reference_ns());
        }
        let (bed, setup) = build_timed(spec, seed);
        setups.push(setup.as_secs_f64());
        let out = replay(&bed, spec, &arrivals, &mut Direct { spec })?;
        check_replay(spec, arrivals.len(), &out)?;
        if let Some(first) = outcomes.first() {
            check_same_counts(spec, "same-seed replays", &first.counts, &out.counts)?;
        }
        measured += out.wall;
        outcomes.push(out);
        drop(bed);
        // Peak memory after a fixed number of replays, so the figure does
        // not depend on how many replays the machine's speed allowed.
        if outcomes.len() == min_replays {
            rss_mb = peak_rss_mb()?;
        }
    }
    let total = |f: fn(&Counts) -> u64| outcomes.iter().map(|o| f(&o.counts)).sum::<u64>();
    let (submitted, placed, failed) =
        (total(|c| c.submitted), total(|c| c.placed), total(|c| c.failed));
    if placed == 0 {
        return Err(format!("{}: nothing was placed", spec.name));
    }
    let wan_ms = total(|c| c.sim_latency_us) as f64 / placed as f64 / 1e3;

    let keep = outcomes.len().div_ceil(10).max(min_fast);
    // Rates come from the replays with the shortest wall time; latencies
    // from those whose client calls took least time in total, which on
    // refresh-dominated workloads need not be the same replays.
    outcomes.sort_by_key(|o| o.wall);
    let wall: f64 = outcomes[..keep].iter().map(|o| o.wall.as_secs_f64()).sum();
    let fast_total =
        |f: fn(&Counts) -> u64| outcomes[..keep].iter().map(|o| f(&o.counts)).sum::<u64>();
    let (submitted_fast, placed_fast) = (fast_total(|c| c.submitted), fast_total(|c| c.placed));
    outcomes.sort_by_key(|o| o.latencies_ns.iter().sum::<u64>());
    let latencies: Vec<u64> =
        outcomes[..keep].iter().flat_map(|o| o.latencies_ns.iter().copied()).collect();
    let reference = quantile(&references, 0.1);
    // Multiplies a time, divides a rate.
    let scale = calibrate::NOMINAL_NS / reference;
    let raw = [
        ("throughput_rps", submitted_fast as f64 / wall, "1/s"),
        ("goodput_pps", placed_fast as f64 / wall, "1/s"),
        ("latency_p50_us", percentile(&latencies, 0.50) / 1e3, "us"),
        ("latency_p99_us", percentile(&latencies, 0.99) / 1e3, "us"),
        ("setup_s", quantile(&setups, 0.1), "s"),
    ];
    println!(
        "{}: {} replays of {} submissions ({calls} client calls) each; timings from the fastest {} ({} calls); {} setups",
        spec.name,
        outcomes.len(),
        arrivals.len(),
        keep,
        latencies.len(),
        setups.len()
    );
    println!(
        "  reference work: {:.3} ms (fastest tenth of {}); timings below are scaled by {:.4} to {:.1} ms. As measured:",
        reference / 1e6,
        references.len(),
        scale,
        calibrate::NOMINAL_NS / 1e6
    );
    for (name, value, unit) in raw {
        println!("    {name:<28} {value:>14.4} {unit}");
    }
    let mut metrics: Vec<Metric> = raw
        .iter()
        .map(|&(name, value, unit)| {
            let rescaled = if unit == "1/s" { value / scale } else { value * scale };
            metric(name, rescaled, unit)
        })
        .collect();
    metrics.push(metric("wan_ms_per_placement", wan_ms, "ms"));
    metrics.push(metric("rss_mb", rss_mb, "MB"));
    Ok(Report { metrics, attempted: submitted, failed })
}

/// The layers whose self time is reported, in path order. `core` is the
/// class object's `destroy_instance` on departures; `batch` is the part
/// of `place_many` outside `compute_schedule` (reservation and
/// enactment run inside it). `legion-fabric` has no span of its own: its
/// messages are charged inside the other layers' calls, and clock
/// advances cost less than a span would.
const LAYERS: [&str; 7] =
    ["ingress", "schedulers", "collection", "schedule", "hosts", "core", "batch"];

/// Traced run: alternating untraced and traced replays of the same
/// arrivals, each on a fresh bed, until `seconds` of replay wall time.
fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let arrivals = bed::draw_arrivals(spec, seed);
    let (mut untraced_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let mut traced: Vec<(Outcome, Vec<Span>)> = Vec::new();
    let mut rounds = 0;
    while traced.len() < MIN_REPLAYS || (untraced_wall + traced_wall).as_secs_f64() < seconds {
        let (bed, _) = build_timed(spec, seed);
        let plain = replay(&bed, spec, &arrivals, &mut Direct { spec })?;
        check_replay(spec, arrivals.len(), &plain)?;
        drop(bed);
        let (bed, _) = build_timed(spec, seed);
        let mut client = Traced::new(spec, &bed);
        let out = replay(&bed, spec, &arrivals, &mut client)?;
        check_replay(spec, arrivals.len(), &out)?;
        check_same_counts(spec, "traced and untraced replays", &plain.counts, &out.counts)?;
        rounds += client.reserve_rounds;
        let spans = client.into_spans();
        untraced_wall += plain.wall;
        traced_wall += out.wall;
        traced.push((out, spans));
    }

    // Per-layer self time over all traced replays.
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for (_, spans) in &traced {
        for (layer, ns) in spans::layer_self_ns(spans) {
            *self_ns.entry(layer).or_insert(0) += ns;
        }
    }
    let wall_ns = traced_wall.as_nanos() as f64;
    let attributed: u64 = LAYERS.iter().map(|l| self_ns.get(l).copied().unwrap_or(0)).sum();
    let unattributed = 1.0 - attributed as f64 / wall_ns;
    let overhead = traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0;

    let all: Vec<Span> = traced.iter().flat_map(|(_, s)| s.iter().cloned()).collect();
    let us = |name: &str, q: f64| percentile(&spans::durations(&all, name), q) / 1e3;
    let ms = |name: &str, q: f64| percentile(&spans::durations(&all, name), q) / 1e6;
    let share = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / wall_ns;
    let sum = |f: &dyn Fn(&Outcome) -> u64| traced.iter().map(|(o, _)| f(o)).sum::<u64>();
    let placed = sum(&|o| o.counts.placed);
    let led = |f: fn(&legion::fabric::MetricsSnapshot) -> u64| sum(&|o| f(&o.ledger));
    let cache = |f: fn(&legion::schedulers::CandidateCacheStats) -> u64| sum(&|o| f(&o.cache));
    let replays = traced.len() as u64;
    let serves = cache(|c| c.hits) + cache(|c| c.patched) + cache(|c| c.misses);
    let generations = spans::durations(&all, "schedulers.compute").len() as u64;
    let first = &traced[0].0;

    println!(
        "{}: traced {} replays, traced wall {:.3} s, untraced wall {:.3} s",
        spec.name,
        replays,
        traced_wall.as_secs_f64(),
        untraced_wall.as_secs_f64()
    );
    println!("  self time per layer (all traced replays):");
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        println!(
            "    {layer:<11} {:>10.3} ms  {:>6.2}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / wall_ns
        );
    }
    println!(
        "    {:<11} {:>10.3} ms  {:>6.2}%",
        "(client)",
        wall_ns * unattributed / 1e6,
        100.0 * unattributed
    );

    let metrics: Vec<Metric> = vec![
        metric("ingress.admit_us_p50", us("ingress.admit", 0.50), "us"),
        metric("ingress.admit_us_p99", us("ingress.admit", 0.99), "us"),
        metric("ingress.admitted", first.ledger.ingress_admitted as f64, "count"),
        metric("ingress.refused", first.counts.refused as f64, "count"),
        metric("ingress.busy_share", share("ingress"), "ratio"),
        metric("schedulers.compute_us_p50", us("schedulers.compute", 0.50), "us"),
        metric("schedulers.compute_us_p99", us("schedulers.compute", 0.99), "us"),
        metric("schedulers.busy_share", share("schedulers"), "ratio"),
        metric("schedulers.cache_hit_share", ratio(cache(|c| c.hits), serves), "ratio"),
        metric("schedulers.cache_patched", first.cache.patched as f64, "count"),
        metric("schedulers.cache_misses", first.cache.misses as f64, "count"),
        metric("schedulers.generations_per_placement", ratio(generations, placed), "ratio"),
        metric(
            "collection.queries_per_placement",
            ratio(led(|l| l.collection_queries), placed),
            "ratio",
        ),
        metric(
            "collection.records_scanned_per_query",
            ratio(led(|l| l.collection_records_scanned), led(|l| l.collection_queries)),
            "ratio",
        ),
        metric("collection.refresh_ms_p50", ms("collection.pull_once", 0.50), "ms"),
        metric(
            "collection.updates_per_refresh",
            ratio(led(|l| l.collection_updates), sum(&|o| o.refreshes)),
            "ratio",
        ),
        metric("collection.busy_share", share("collection"), "ratio"),
        metric("hosts.reassess_ms_p50", ms("hosts.reassess_all", 0.50), "ms"),
        metric(
            "hosts.reservation_grant_share",
            ratio(led(|l| l.reservations_granted), led(|l| l.reservation_requests)),
            "ratio",
        ),
        metric(
            "hosts.reservation_requests_per_placement",
            ratio(led(|l| l.reservation_requests), placed),
            "ratio",
        ),
        metric("hosts.busy_share", share("hosts"), "ratio"),
        metric("schedule.reserve_us_p50", us("schedule.reserve", 0.50), "us"),
        metric("schedule.reserve_us_p99", us("schedule.reserve", 0.99), "us"),
        metric("schedule.enact_us_p50", us("schedule.enact", 0.50), "us"),
        metric("schedule.reserve_rounds_per_placement", ratio(rounds, placed), "ratio"),
        metric(
            "schedule.schedules_reserved_share",
            ratio(led(|l| l.schedules_reserved), led(|l| l.schedules_attempted)),
            "ratio",
        ),
        metric("schedule.backoffs", first.ledger.enactor_backoffs as f64, "count"),
        metric("schedule.thrash", first.ledger.reservation_thrash as f64, "count"),
        metric("schedule.busy_share", share("schedule"), "ratio"),
        metric("fabric.messages_per_placement", ratio(led(|l| l.messages), placed), "ratio"),
        metric("fabric.messages_dropped", first.ledger.messages_dropped as f64, "count"),
        metric("core.busy_share", share("core"), "ratio"),
        metric("batch.place_many_us_p50", us("batch.place_many", 0.50), "us"),
        metric("batch.busy_share", share("batch"), "ratio"),
        metric("trace.overhead_share", overhead, "ratio"),
        metric("pipeline.unattributed_share", unattributed, "ratio"),
        metric(
            "pipeline.failed_share",
            ratio(sum(&|o| o.counts.failed), sum(&|o| o.counts.submitted)),
            "ratio",
        ),
    ];
    let (attempted, failed) = (sum(&|o| o.counts.submitted), sum(&|o| o.counts.failed));
    let path = std::path::Path::new(SPAN_DIR).join(format!("{}.tsv", spec.name));
    let span_sets: Vec<Vec<Span>> = traced.into_iter().map(|(_, s)| s).collect();
    spans::write_tsv(&path, &span_sets).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());

    if unattributed.abs() > UNATTRIBUTED_BOUND {
        return Err(format!(
            "{}: layer self times leave {:.1}% of traced wall unattributed (bound {:.0}%)",
            spec.name,
            100.0 * unattributed,
            100.0 * UNATTRIBUTED_BOUND
        ));
    }

    Ok(Report { metrics, attempted, failed })
}

fn print_metrics(workload: &str, trace: bool, metrics: &[Metric]) {
    println!("{workload} ({}):", if trace { "traced, per layer" } else { "untraced, end to end" });
    for (name, value, unit) in metrics {
        println!("  {name:<42} {value:>14.4} {unit}");
    }
}

fn json_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        profile()
    );
    let names: Vec<&str> =
        if args.workload == "all" { bed::WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    // `all` prints both halves of every workload; a named workload
    // prints the half `--trace` selects.
    let modes: Vec<bool> =
        if args.workload == "all" { vec![false, true] } else { vec![args.trace] };
    let (mut attempted, mut failed, mut combined) = (0, 0, Vec::new());
    for name in names {
        let spec = bed::spec(name).ok_or_else(|| format!("unknown workload {name}"))?;
        for &trace in &modes {
            let report = if trace {
                run_traced(&spec, args.seed, args.seconds)?
            } else {
                run_e2e(&spec, args.seed, args.seconds)?
            };
            print_metrics(name, trace, &report.metrics);
            attempted += report.attempted;
            failed += report.failed;
            let prefix = if args.workload == "all" { format!("{name}/") } else { String::new() };
            combined
                .extend(report.metrics.into_iter().map(|(n, v, u)| (format!("{prefix}{n}"), v, u)));
        }
    }
    Ok(json_line(attempted, failed, &combined))
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
