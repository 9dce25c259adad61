//! Crash detection and restart-from-OPR.
//!
//! A crashed host does not announce its failure — it simply stops
//! reporting: its reassessments raise no events and its liveness probes
//! go unanswered (a domain partition looks exactly the same from here).
//! The [`Watchdog`] is the Monitor-side response: it probes every
//! registered host each patrol, declares a host dead after a configured
//! number of consecutive misses, and then exercises the paper's
//! shutdown/restart guarantee — "the OPR is used for migration and for
//! shutdown/restart purposes" (§2.1) — by reactivating the dead host's
//! objects from their vault OPRs on live hosts.

use legion_core::{Loid, LoidKind, PlacementContext, SimTime, SpanKind, SpanOutcome, VaultDirectory};
use legion_fabric::{Fabric, MetricsLedger};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One object brought back from its OPR after a host was declared dead.
#[derive(Debug, Clone)]
pub struct RestartRecord {
    /// The recovered object.
    pub object: Loid,
    /// The host declared dead.
    pub from: Loid,
    /// The host it was reactivated on.
    pub to: Loid,
    /// The vault the OPR was fetched from.
    pub via_vault: Loid,
    /// When the restart completed.
    pub at: SimTime,
}

/// Monitor component that detects dead hosts and restarts their objects.
pub struct Watchdog {
    loid: Loid,
    fabric: Arc<Fabric>,
    /// Consecutive missed probes before a host is declared dead.
    misses_allowed: u32,
    misses: Mutex<BTreeMap<Loid, u32>>,
}

impl Watchdog {
    /// A watchdog declaring hosts dead after `misses_allowed`
    /// consecutive missed probes (at least 1).
    pub fn new(fabric: Arc<Fabric>, misses_allowed: u32) -> Self {
        Watchdog {
            loid: fabric.mint(LoidKind::Service),
            fabric,
            misses_allowed: misses_allowed.max(1),
            misses: Mutex::new(BTreeMap::new()),
        }
    }

    /// This watchdog's identifier.
    pub fn loid(&self) -> Loid {
        self.loid
    }

    /// Consecutive misses currently recorded against `host`.
    pub fn misses_for(&self, host: Loid) -> u32 {
        self.misses.lock().get(&host).copied().unwrap_or(0)
    }

    /// Whether `host` is currently considered dead.
    pub fn considers_dead(&self, host: Loid) -> bool {
        self.misses_for(host) >= self.misses_allowed
    }

    /// One monitoring round: probe every registered host, update miss
    /// counts, and restart the objects of newly-or-still dead hosts from
    /// their OPRs. Returns the restarts performed this round.
    ///
    /// A host behind a partition is indistinguishable from a crashed one
    /// and is recovered the same way — the Class's location records are
    /// the single authority on placement, so when the partition heals
    /// the stale replica is simply no longer referenced.
    ///
    /// The round is two-phase: *all* probes land and miss counters
    /// settle before any recovery runs. A flapping host that answered
    /// its probe this round is therefore immediately usable as a
    /// recovery candidate, whatever its position in registry order.
    /// Miss entries for hosts no longer registered are pruned, so a
    /// host that unregisters and later re-joins starts with a clean
    /// slate instead of inheriting a dead verdict.
    pub fn patrol(&self, now: SimTime) -> Vec<RestartRecord> {
        let registered = self.fabric.host_loids();
        let mut dead_hosts = Vec::new();
        {
            let mut misses = self.misses.lock();
            misses.retain(|h, _| registered.contains(h));
        }
        for &host_loid in &registered {
            let alive = self.probe(host_loid, now);
            let mut misses = self.misses.lock();
            if alive {
                misses.insert(host_loid, 0);
            } else {
                let m = misses.entry(host_loid).or_insert(0);
                *m = m.saturating_add(1);
                if *m >= self.misses_allowed {
                    dead_hosts.push(host_loid);
                }
            }
        }
        let mut restarts = Vec::new();
        for dead in dead_hosts {
            restarts.extend(self.recover_host(dead, now));
        }
        restarts
    }

    /// Whether the host answers a liveness probe over the network.
    fn probe(&self, host_loid: Loid, now: SimTime) -> bool {
        if self.fabric.link(self.loid, host_loid).is_err() {
            return false;
        }
        match self.fabric.lookup_host(host_loid) {
            Some(h) => h.probe(now).is_ok(),
            None => false,
        }
    }

    /// Restarts every object the Classes still place on `dead` from its
    /// OPR, on the first live host that accepts the reactivation.
    fn recover_host(&self, dead: Loid, now: SimTime) -> Vec<RestartRecord> {
        let mut records = Vec::new();
        let episode = self.fabric.tracer().begin_episode("recover", dead);
        episode.attr("host", dead.to_string());
        for class_loid in self.fabric.class_loids() {
            let Some(class) = self.fabric.lookup_class(class_loid) else { continue };
            for (instance, placed_on) in class.instances() {
                if placed_on != dead {
                    continue;
                }
                // Locate the OPR: any vault still holding passive state
                // for this object. Vault loss makes the object
                // unrecoverable — it stays stranded on the dead host's
                // record and is reported by omission.
                let Some(vault_loid) = self.fabric.vault_loids().into_iter().find(|&v| {
                    self.fabric.lookup_vault(v).is_some_and(|vault| vault.holds(instance))
                }) else {
                    continue;
                };
                let Some(vault) = self.fabric.lookup_vault(vault_loid) else { continue };
                let Ok(opr) = vault.fetch_opr(instance) else { continue };

                let span = self.fabric.tracer().span(SpanKind::RestartFromOpr);
                span.attr("object", instance.to_string());
                span.attr("from", dead.to_string());
                span.attr("vault", vault_loid.to_string());
                let mut restarted = false;

                // First live host that accepts the reactivation wins.
                // If a candidate cannot reach the holding vault, the OPR
                // is copied into one it can reach (delete-after-success,
                // so the passive state is never lost mid-recovery).
                for candidate in self.fabric.host_loids() {
                    if candidate == dead || self.considers_dead(candidate) {
                        continue;
                    }
                    let Some(host) = self.fabric.lookup_host(candidate) else { continue };
                    if self.fabric.link(self.loid, candidate).is_err() {
                        continue;
                    }
                    let reachable = host.get_compatible_vaults();
                    let via = if reachable.contains(&vault_loid) {
                        vault_loid
                    } else {
                        let Some(&target) = reachable.first() else { continue };
                        let Some(dst_vault) = self.fabric.lookup_vault(target) else {
                            continue;
                        };
                        if self.fabric.link(vault_loid, target).is_err() {
                            continue;
                        }
                        if dst_vault.store_opr(opr.clone()).is_err() {
                            continue;
                        }
                        target
                    };
                    if host.reactivate_object(&opr, now).is_ok() {
                        if via != vault_loid {
                            let _ = vault.delete_opr(instance);
                        }
                        class.note_instance_location(instance, candidate);
                        MetricsLedger::bump(&self.fabric.metrics().monitor_restarts);
                        span.attr("to", candidate.to_string());
                        span.attr("via", via.to_string());
                        restarted = true;
                        records.push(RestartRecord {
                            object: instance,
                            from: dead,
                            to: candidate,
                            via_vault: via,
                            at: now,
                        });
                        break;
                    } else if via != vault_loid {
                        if let Some(dv) = self.fabric.lookup_vault(via) {
                            let _ = dv.delete_opr(instance);
                        }
                    }
                }
                if restarted {
                    span.end_ok();
                } else {
                    span.end_with(SpanOutcome::ResourceUnavailable);
                }
            }
        }
        episode.attr("restarted", records.len() as i64);
        episode.end_with(SpanOutcome::Ok);
        records
    }
}
