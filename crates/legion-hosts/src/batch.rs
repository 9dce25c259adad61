//! The Batch Queue Host.
//!
//! "most batch processing systems do not understand reservations, and so
//! our basic Batch Queue Host maintains reservations in a fashion similar
//! to the Unix Host Object" (§3.1). A [`BatchQueueHost`] therefore
//! *composes* a [`StandardHost`] — which contributes the reservation
//! table, policy chain, attribute reporting and trigger machinery — with
//! a simulated queue management system that actually executes the work.
//!
//! "Our real ability to coordinate large applications running across
//! multiple queuing systems will be limited by the functionality of the
//! underlying queuing system" — the queue disciplines in
//! [`queue_sim`](crate::queue_sim) reproduce exactly that limitation:
//! a granted reservation guarantees admission, but execution still waits
//! for a queue slot.

use crate::host::StandardHost;
use crate::queue_sim::{Job, QueueSim};
use legion_core::host::well_known;
use legion_core::{
    AttributeDb, Event, HostObject, LegionError, Loid, ObjectSpec, Opr, ReservationRequest,
    ReservationStatus, ReservationToken, SimDuration, SimTime, Trigger, TriggerId, Outcall,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Aggregate queue statistics for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueStats {
    /// Jobs completed so far.
    pub completed: u64,
    /// Sum of queue waits (µs) over completed jobs.
    pub total_wait_us: u64,
}

impl QueueStats {
    /// Mean queue wait in seconds.
    pub fn mean_wait_secs(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_wait_us as f64 / 1e6 / self.completed as f64
        }
    }
}

/// A host fronting a (reservation-less) batch queue system.
pub struct BatchQueueHost {
    inner: Arc<StandardHost>,
    queue: Mutex<Box<dyn QueueSim>>,
    next_job: AtomicU64,
    stats: Mutex<QueueStats>,
    default_user: String,
}

impl BatchQueueHost {
    /// Wraps `inner` with the given queue discipline.
    pub fn new(inner: Arc<StandardHost>, queue: Box<dyn QueueSim>) -> Arc<Self> {
        Arc::new(BatchQueueHost {
            inner,
            queue: Mutex::new(queue),
            next_job: AtomicU64::new(1),
            stats: Mutex::new(QueueStats::default()),
            default_user: "legion".into(),
        })
    }

    /// The wrapped standard host (reservation table, policies, triggers).
    pub fn inner(&self) -> &Arc<StandardHost> {
        &self.inner
    }

    /// Queue statistics so far.
    pub fn queue_stats(&self) -> QueueStats {
        *self.stats.lock()
    }

    /// (queued, running) job counts.
    pub fn queue_depths(&self) -> (usize, usize) {
        let q = self.queue.lock();
        (q.queued(), q.running())
    }
}

impl HostObject for BatchQueueHost {
    fn loid(&self) -> Loid {
        self.inner.loid()
    }

    fn make_reservation(
        &self,
        req: &ReservationRequest,
        now: SimTime,
    ) -> Result<ReservationToken, LegionError> {
        // Reservations are host-side; the queue never sees them.
        self.inner.make_reservation(req, now)
    }

    fn check_reservation(
        &self,
        token: &ReservationToken,
        now: SimTime,
    ) -> Result<ReservationStatus, LegionError> {
        self.inner.check_reservation(token, now)
    }

    fn cancel_reservation(&self, token: &ReservationToken) -> Result<(), LegionError> {
        self.inner.cancel_reservation(token)
    }

    fn start_object(
        &self,
        token: &ReservationToken,
        specs: &[ObjectSpec],
        now: SimTime,
    ) -> Result<Vec<Loid>, LegionError> {
        // Consume the reservation and register the objects with the
        // standard host, then submit one queue job per object. The job
        // runs for the reserved duration; queue wait is extra — exactly
        // the "limited by the underlying queuing system" conflict.
        let started = self.inner.start_object(token, specs, now)?;
        let mut q = self.queue.lock();
        let cpus_per_job = (token.cpu_centis / 100).max(1) / specs.len().max(1) as u32;
        for &object in &started {
            q.submit(Job {
                id: self.next_job.fetch_add(1, Ordering::Relaxed),
                object,
                cpus: cpus_per_job.max(1),
                runtime: token.duration,
                submitted: now,
                user: self.default_user.clone(),
                priority: 0,
            });
        }
        Ok(started)
    }

    fn kill_object(&self, object: Loid) -> Result<(), LegionError> {
        self.queue.lock().remove(object);
        self.inner.kill_object(object)
    }

    fn deactivate_object(&self, object: Loid, now: SimTime) -> Result<Opr, LegionError> {
        self.queue.lock().remove(object);
        self.inner.deactivate_object(object, now)
    }

    fn reactivate_object(&self, opr: &Opr, now: SimTime) -> Result<(), LegionError> {
        self.inner.reactivate_object(opr, now)?;
        self.queue.lock().submit(Job {
            id: self.next_job.fetch_add(1, Ordering::Relaxed),
            object: opr.object,
            cpus: 1,
            runtime: SimDuration::from_secs(3600),
            submitted: now,
            user: self.default_user.clone(),
            priority: 0,
        });
        Ok(())
    }

    fn running_objects(&self) -> Vec<Loid> {
        self.inner.running_objects()
    }

    fn get_compatible_vaults(&self) -> Vec<Loid> {
        self.inner.get_compatible_vaults()
    }

    fn vault_ok(&self, vault: Loid) -> bool {
        self.inner.vault_ok(vault)
    }

    fn attributes(&self) -> AttributeDb {
        let mut attrs = self.inner.attributes();
        let q = self.queue.lock();
        attrs.set(well_known::FLAVOR, "batch");
        attrs.set(well_known::QUEUE_SYSTEM, q.name());
        attrs.set("host_queue_depth", q.queued() as i64);
        attrs.set("host_queue_running", q.running() as i64);
        attrs.set("host_queue_slots", q.slots() as i64);
        attrs
    }

    fn crash(&self) {
        // Jobs die with the machine: drop every queued/running job,
        // then fail-stop the wrapped host.
        let objects = self.inner.running_objects();
        {
            let mut q = self.queue.lock();
            for o in objects {
                q.remove(o);
            }
        }
        self.inner.crash();
    }

    fn restart(&self, now: SimTime) {
        self.inner.restart(now)
    }

    fn is_crashed(&self) -> bool {
        self.inner.is_crashed()
    }

    fn probe(&self, now: SimTime) -> Result<(), LegionError> {
        self.inner.probe(now)
    }

    fn register_trigger(&self, trigger: Trigger) -> TriggerId {
        self.inner.register_trigger(trigger)
    }

    fn remove_trigger(&self, id: TriggerId) {
        self.inner.remove_trigger(id)
    }

    fn register_outcall(&self, outcall: Arc<dyn Outcall>) {
        self.inner.register_outcall(outcall)
    }

    fn reassess(&self, now: SimTime) -> Vec<Event> {
        // Drive the queue: completed jobs leave the host.
        let completed = self.queue.lock().advance(now);
        if !completed.is_empty() {
            let mut stats = self.stats.lock();
            for c in &completed {
                stats.completed += 1;
                stats.total_wait_us += c.queue_wait().as_micros();
            }
        }
        for c in &completed {
            // The object finished; ignore races where it was already
            // killed or migrated away.
            let _ = self.inner.kill_object(c.job.object);
        }
        self.inner.reassess(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostConfig;
    use crate::queue_sim::FcfsQueue;
    use legion_core::{LoidKind, VaultDirectory, VaultObject};
    use legion_vaults::{StandardVault, VaultConfig};
    use std::collections::BTreeMap;

    /// Minimal vault directory for host-level tests.
    #[derive(Default)]
    struct MapDir {
        vaults: BTreeMap<Loid, Arc<dyn VaultObject>>,
    }

    impl MapDir {
        fn with_open_vault() -> (Arc<Self>, Loid) {
            let v = StandardVault::new(Loid::synthetic(LoidKind::Vault, 1), VaultConfig::default());
            let v: Arc<dyn VaultObject> = Arc::new(v);
            let loid = v.loid();
            let mut d = MapDir::default();
            d.vaults.insert(loid, v);
            (Arc::new(d), loid)
        }
    }

    impl VaultDirectory for MapDir {
        fn lookup_vault(&self, loid: Loid) -> Option<Arc<dyn VaultObject>> {
            self.vaults.get(&loid).cloned()
        }

        fn vault_loids(&self) -> Vec<Loid> {
            self.vaults.keys().copied().collect()
        }
    }

    fn batch_host() -> (Arc<BatchQueueHost>, Loid) {
        let (dir, vault) = MapDir::with_open_vault();
        let loid = Loid::synthetic(LoidKind::Host, 1);
        let inner = StandardHost::new(loid, HostConfig::smp("bq0", "uva.edu", 2), dir, 99);
        (BatchQueueHost::new(inner, Box::new(FcfsQueue::new(2))), vault)
    }

    #[test]
    fn jobs_queue_and_complete() {
        let (h, vault) = batch_host();
        let class = Loid::synthetic(LoidKind::Class, 1);
        // Modest CPU shares so the reservation table admits all three;
        // the 2-slot queue is then the bottleneck: one job must wait.
        let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(10))
            .with_demand(50, 64);
        for i in 0..3 {
            let tok = h.make_reservation(&req, SimTime::ZERO).unwrap();
            let spec = ObjectSpec::new(class, Loid::synthetic(LoidKind::Instance, i));
            h.start_object(&tok, &[spec], SimTime::ZERO).unwrap();
        }
        assert_eq!(h.running_objects().len(), 3);
        h.reassess(SimTime::ZERO); // queue starts 2 of 3
        assert_eq!(h.queue_depths(), (1, 2));

        h.reassess(SimTime::from_secs(10)); // first two finish, third starts
        assert_eq!(h.queue_depths().0, 0);
        let stats = h.queue_stats();
        assert_eq!(stats.completed, 2);

        h.reassess(SimTime::from_secs(20));
        assert_eq!(h.queue_stats().completed, 3);
        assert_eq!(h.running_objects().len(), 0);
        // The third job waited ~10 virtual seconds.
        assert!(h.queue_stats().mean_wait_secs() > 3.0);
    }

    #[test]
    fn batch_attributes_report_queue() {
        let (h, _) = batch_host();
        let a = h.attributes();
        assert_eq!(a.get_str(well_known::FLAVOR), Some("batch"));
        assert_eq!(a.get_str(well_known::QUEUE_SYSTEM), Some("loadleveler-sim"));
        assert_eq!(a.get_i64("host_queue_slots"), Some(2));
    }

    #[test]
    fn reservations_still_enforced_host_side() {
        let (h, vault) = batch_host();
        let class = Loid::synthetic(LoidKind::Class, 1);
        // Exclusive reservation blocks the whole (2-cpu) machine even
        // though the queue knows nothing about reservations.
        let excl = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(100))
            .with_type(legion_core::ReservationType::REUSABLE_SPACE);
        h.make_reservation(&excl, SimTime::ZERO).unwrap();
        let shared = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(10));
        assert!(h.make_reservation(&shared, SimTime::ZERO).is_err());
    }
}
