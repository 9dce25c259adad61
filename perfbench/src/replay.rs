//! The closed loop: one client replays pre-drawn arrivals in virtual
//! time as fast as the code allows, waiting for each reply.

use crate::bed::{Arrival, Bed, Spec};
use crate::spans::{Recorder, Span, ROOT};
use legion::core::{LegionError, Loid, PlacementRequest, SimTime};
use legion::fabric::MetricsSnapshot;
use legion::ingress::{IngressError, TenantId};
use legion::schedule::ScheduleRequestList;
use legion::schedulers::{
    CandidateCacheStats, DriverReport, PlacementSpec, SchedCtx, ScheduleDriver, Scheduler,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads `submit_many` hands to `place_many`. One: on a shared
/// 2-vCPU machine, two workers made every batch wait on whichever
/// processor a neighbour was using, and the run-to-run spread of
/// `overload_batched` reached 63% (README, Findings). With one worker
/// the batch runs serially and every count repeats exactly.
const PLACE_MANY_WORKERS: usize = 1;

/// The outcome counts one replay must reproduce exactly from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub submitted: u64,
    pub placed: u64,
    pub refused: u64,
    pub failed: u64,
    pub messages: u64,
    pub sim_latency_us: u64,
}

pub struct Outcome {
    pub counts: Counts,
    /// Wall time of each client call (`submit`, or one `submit_many`).
    pub latencies_ns: Vec<u64>,
    /// Wall time of the whole replay loop.
    pub wall: Duration,
    pub refreshes: u64,
    pub ledger: MetricsSnapshot,
    pub cache: CandidateCacheStats,
}

/// What one submission came to.
pub enum Reply {
    Placed(Vec<Loid>),
    Refused,
    Failed,
}

/// Checks a front-door result: a report must hold exactly the requested
/// instances; a refusal or a placement failure are outcomes, anything
/// else is an error of the run.
fn reply(spec: &Spec, result: Result<DriverReport, IngressError>) -> Result<Reply, String> {
    match result {
        Ok(report) if report.placed.len() == spec.instances as usize => {
            Ok(Reply::Placed(report.placed.into_iter().map(|(_, obj)| obj).collect()))
        }
        Ok(report) => Err(format!(
            "driver report holds {} instances, {} requested",
            report.placed.len(),
            spec.instances
        )),
        Err(IngressError::Rejected(_)) => Ok(Reply::Refused),
        Err(IngressError::Placement(_)) => Ok(Reply::Failed),
        Err(e) => Err(format!("unexpected front-door error: {e}")),
    }
}

/// How the replay loop reaches the system: straight through the public
/// front door, or through the same calls decomposed and wrapped in spans.
pub trait Client {
    fn submit(&mut self, bed: &Bed, tenant: TenantId) -> Result<Reply, String>;
    fn submit_many(
        &mut self,
        bed: &Bed,
        subs: &[(TenantId, PlacementRequest)],
    ) -> Result<Vec<Reply>, String>;
    /// Runs one maintenance call (refresh, departure) as `name`.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// Untraced: `FrontDoor::submit` / `submit_many`, nothing around them.
pub struct Direct<'a> {
    pub spec: &'a Spec,
}

impl Client for Direct<'_> {
    fn submit(&mut self, bed: &Bed, tenant: TenantId) -> Result<Reply, String> {
        reply(self.spec, bed.door.submit(tenant, &bed.request))
    }

    fn submit_many(
        &mut self,
        bed: &Bed,
        subs: &[(TenantId, PlacementRequest)],
    ) -> Result<Vec<Reply>, String> {
        bed.door
            .submit_many(subs, PLACE_MANY_WORKERS)
            .into_iter()
            .map(|r| reply(self.spec, r))
            .collect()
    }

    fn call<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Times every `compute_schedule` call of the wrapped scheduler, on
/// whichever `place_many` worker thread makes it.
struct TimedScheduler {
    inner: Arc<dyn Scheduler>,
    rec: Arc<Recorder>,
    parent: AtomicUsize,
    request: AtomicU64,
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compute_schedule(
        &self,
        request: &PlacementRequest,
        ctx: &SchedCtx,
    ) -> Result<ScheduleRequestList, LegionError> {
        let parent = self.parent.load(Ordering::Relaxed);
        let id = self.request.load(Ordering::Relaxed);
        self.rec
            .span("schedulers.compute", parent, id, || self.inner.compute_schedule(request, ctx))
    }
}

/// Traced: the Fig. 9 loop through public calls for single submissions
/// (`admit` → `compute_schedule` → `make_reservations` → `enact_schedule`
/// → `conclude`), and `admit` → `place_many` for batches.
pub struct Traced<'a> {
    spec: &'a Spec,
    rec: Arc<Recorder>,
    timed: Arc<TimedScheduler>,
    driver: ScheduleDriver,
    next_request: u64,
    /// `make_reservations` calls: counted here for single submissions,
    /// read from the reports of successful placements in a batch.
    pub reserve_rounds: u64,
}

impl<'a> Traced<'a> {
    pub fn new(spec: &'a Spec, bed: &Bed) -> Self {
        let rec = Arc::new(Recorder::new());
        let timed = Arc::new(TimedScheduler {
            inner: Arc::clone(&bed.scheduler),
            rec: Arc::clone(&rec),
            parent: AtomicUsize::new(ROOT),
            request: AtomicU64::new(0),
        });
        let driver = ScheduleDriver::with_limits(
            Arc::clone(&timed) as Arc<dyn Scheduler>,
            Arc::clone(&bed.enactor),
            bed.door.config().limits,
        );
        Traced { spec, rec, timed, driver, next_request: 0, reserve_rounds: 0 }
    }

    /// The spans recorded so far; ends the client.
    pub fn into_spans(self) -> Vec<Span> {
        // The timed scheduler inside the driver holds the other handle.
        drop(self.driver);
        drop(self.timed);
        Arc::try_unwrap(self.rec).ok().expect("no span handle outlives the client").into_spans()
    }

    fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }
}

impl Client for Traced<'_> {
    fn submit(&mut self, bed: &Bed, tenant: TenantId) -> Result<Reply, String> {
        let id = self.request_id();
        let rec = Arc::clone(&self.rec);
        let root = rec.open("client.submit", ROOT, id);
        let Ok(permit) = rec.span("ingress.admit", root, id, || bed.door.admit(tenant)) else {
            rec.close(root);
            return Ok(Reply::Refused);
        };
        let limits = bed.door.config().limits;
        let ctx = bed.door.ctx();
        let mut placed = None;
        'generations: for _ in 0..limits.sched_try_limit {
            let computed = rec.span("schedulers.compute", root, id, || {
                bed.scheduler.compute_schedule(&bed.request, ctx)
            });
            let Ok(sched) = computed else { continue };
            for _ in 0..limits.enact_try_limit {
                self.reserve_rounds += 1;
                let feedback = rec
                    .span("schedule.reserve", root, id, || bed.enactor.make_reservations(&sched));
                if !feedback.reserved() {
                    continue;
                }
                if let Ok(p) =
                    rec.span("schedule.enact", root, id, || bed.enactor.enact_schedule(&feedback))
                {
                    placed = Some(p);
                    break 'generations;
                }
            }
        }
        rec.span("ingress.conclude", root, id, || bed.door.conclude(permit, placed.is_some()));
        rec.close(root);
        match placed {
            Some(p) if p.len() == self.spec.instances as usize => {
                Ok(Reply::Placed(p.into_iter().map(|(_, obj)| obj).collect()))
            }
            Some(p) => Err(format!(
                "placement holds {} instances, {} requested",
                p.len(),
                self.spec.instances
            )),
            None => Ok(Reply::Failed),
        }
    }

    fn submit_many(
        &mut self,
        bed: &Bed,
        subs: &[(TenantId, PlacementRequest)],
    ) -> Result<Vec<Reply>, String> {
        let id = self.request_id();
        let rec = Arc::clone(&self.rec);
        let root = rec.open("client.submit_many", ROOT, id);
        let mut replies: Vec<Option<Reply>> = (0..subs.len()).map(|_| None).collect();
        let mut permits = Vec::new();
        let mut specs = Vec::new();
        for (i, (tenant, request)) in subs.iter().enumerate() {
            match rec.span("ingress.admit", root, id, || bed.door.admit(*tenant)) {
                Ok(permit) => {
                    permits.push((i, permit));
                    specs.push(PlacementSpec::new(request.clone()));
                }
                Err(_) => replies[i] = Some(Reply::Refused),
            }
        }
        let batch = rec.open("batch.place_many", root, id);
        self.timed.parent.store(batch, Ordering::Relaxed);
        self.timed.request.store(id, Ordering::Relaxed);
        let results = self.driver.place_many(&specs, bed.door.ctx(), PLACE_MANY_WORKERS);
        rec.close(batch);
        for ((i, permit), result) in permits.into_iter().zip(results) {
            if let Ok(report) = &result {
                self.reserve_rounds += report.reservation_rounds as u64;
            }
            rec.span("ingress.conclude", root, id, || bed.door.conclude(permit, result.is_ok()));
            replies[i] = Some(reply(self.spec, result.map_err(IngressError::Placement))?);
        }
        rec.close(root);
        Ok(replies.into_iter().map(|r| r.expect("every submission answered")).collect())
    }

    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_request;
        self.rec.span(name, ROOT, id, f)
    }
}

/// Replays `arrivals` against a freshly built `bed`. Departures (dwell
/// ends) and refreshes run inline, in virtual-time order, before the
/// arrival they precede; the fabric clock is advanced to each event.
pub fn replay<C: Client>(
    bed: &Bed,
    spec: &Spec,
    arrivals: &[Arrival],
    client: &mut C,
) -> Result<Outcome, String> {
    let fabric = &bed.tb.fabric;
    let clock = fabric.clock();
    let ledger0 = fabric.metrics().snapshot();
    let cache0 = bed.door.ctx().candidate_cache_stats();
    let mut counts = Counts::default();
    let mut latencies_ns = Vec::with_capacity(arrivals.len());
    // Dwell is constant and the clock never runs backwards, so
    // departures come due in the order they were scheduled.
    let mut departures: VecDeque<(SimTime, Vec<Loid>)> = VecDeque::new();
    let mut next_refresh = SimTime::ZERO + spec.refresh;
    let mut refreshes = 0;
    // Built once: the loop only rewrites tenants, so the client clones no
    // request inside the timed region.
    let mut batch = vec![(bed.tenants[0], bed.request.clone()); spec.batch];
    let mut pending = 0;

    let start = Instant::now();
    for (i, arrival) in arrivals.iter().enumerate() {
        loop {
            let departure = departures.front().map(|(t, _)| *t).filter(|t| *t <= arrival.at);
            match departure {
                Some(t) if t <= next_refresh => {
                    let (_, objects) = departures.pop_front().expect("front checked");
                    clock.advance_to(t);
                    for obj in objects {
                        client
                            .call("core.destroy_instance", || {
                                bed.class.destroy_instance(obj, &**fabric)
                            })
                            .map_err(|e| format!("destroy_instance({obj}) at dwell end: {e}"))?;
                    }
                }
                _ if next_refresh <= arrival.at => {
                    let now = clock.advance_to(next_refresh);
                    client.call("hosts.reassess_all", || fabric.reassess_all(now));
                    client.call("collection.pull_once", || bed.tb.daemon.pull_once(now));
                    next_refresh += spec.refresh;
                    refreshes += 1;
                }
                _ => break,
            }
        }
        clock.advance_to(arrival.at);
        let tenant = bed.tenants[arrival.tenant];
        let replies = if spec.batch <= 1 {
            let t0 = Instant::now();
            let r = client.submit(bed, tenant)?;
            latencies_ns.push(t0.elapsed().as_nanos() as u64);
            vec![r]
        } else {
            batch[pending].0 = tenant;
            pending += 1;
            if pending < spec.batch && i + 1 < arrivals.len() {
                continue;
            }
            let t0 = Instant::now();
            let r = client.submit_many(bed, &batch[..pending])?;
            latencies_ns.push(t0.elapsed().as_nanos() as u64);
            pending = 0;
            r
        };
        let leave_at = clock.now() + spec.dwell;
        for r in replies {
            counts.submitted += 1;
            match r {
                Reply::Placed(objects) => {
                    counts.placed += 1;
                    departures.push_back((leave_at, objects));
                }
                Reply::Refused => counts.refused += 1,
                Reply::Failed => counts.failed += 1,
            }
        }
    }
    let wall = start.elapsed();

    let ledger = fabric.metrics().snapshot().delta(&ledger0);
    let c = bed.door.ctx().candidate_cache_stats();
    let cache = CandidateCacheStats {
        hits: c.hits - cache0.hits,
        patched: c.patched - cache0.patched,
        misses: c.misses - cache0.misses,
        gap_resyncs: c.gap_resyncs - cache0.gap_resyncs,
    };
    counts.messages = ledger.messages;
    counts.sim_latency_us = ledger.sim_latency_us;
    Ok(Outcome { counts, latencies_ns, wall, refreshes, ledger, cache })
}
