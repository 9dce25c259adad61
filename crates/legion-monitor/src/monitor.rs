//! Event intake: trigger registration and the outcall inbox.

use legion_core::{
    Event, EventKind, Guard, HostObject, Loid, Outcall, SimDuration, Trigger, TriggerId,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// The outcall sink shared with hosts.
#[derive(Default)]
struct Inbox {
    events: Mutex<VecDeque<Event>>,
}

impl Outcall for Inbox {
    fn notify(&self, event: &Event) {
        self.events.lock().push_back(event.clone());
    }
}

/// An embeddable execution monitor.
pub struct Monitor {
    inbox: Arc<Inbox>,
    watched: Mutex<Vec<(Loid, TriggerId)>>,
}

impl Monitor {
    /// A monitor with an empty inbox.
    pub fn new() -> Self {
        Monitor {
            inbox: Arc::new(Inbox::default()),
            watched: Mutex::new(Vec::new()),
        }
    }

    /// Registers a load-threshold trigger and this monitor's outcall on
    /// `host` — the §2.1 example: "initiate object migration if its load
    /// rises above a threshold".
    pub fn watch_load(&self, host: &Arc<dyn HostObject>, threshold: f64) -> TriggerId {
        let trigger = Trigger::new(
            Guard::attr_gt(legion_core::host::well_known::LOAD, threshold),
            EventKind::LoadThresholdExceeded,
        )
        .with_cooldown(SimDuration::from_secs(10));
        self.watch_with(host, trigger)
    }

    /// Registers an arbitrary trigger plus the outcall.
    pub fn watch_with(&self, host: &Arc<dyn HostObject>, trigger: Trigger) -> TriggerId {
        host.register_outcall(Arc::clone(&self.inbox) as Arc<dyn Outcall>);
        let id = host.register_trigger(trigger);
        self.watched.lock().push((host.loid(), id));
        id
    }

    /// Hosts currently watched (host, trigger) pairs.
    pub fn watched(&self) -> Vec<(Loid, TriggerId)> {
        self.watched.lock().clone()
    }

    /// Drains queued events in arrival order.
    pub fn drain_events(&self) -> Vec<Event> {
        let mut q = self.inbox.events.lock();
        q.drain(..).collect()
    }

    /// Number of undrained events.
    pub fn pending(&self) -> usize {
        self.inbox.events.lock().len()
    }
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}
