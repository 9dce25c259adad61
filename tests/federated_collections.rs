//! Federated Collections across a multi-domain bed: per-domain
//! Collections fed by one daemon, queried through the federation.

use legion::collection::{Collection, DataCollectionDaemon, FederatedCollection};
use legion::prelude::*;
use std::sync::Arc;

fn federated_bed() -> (Testbed, Arc<FederatedCollection>, Vec<Arc<Collection>>) {
    let tb = Testbed::build(TestbedConfig::wide(3, 3, 314));
    // One Collection per domain, each fed by its own daemon tracking
    // only that domain's hosts — the locality partition a real
    // federation would use.
    let per_domain: Vec<Arc<Collection>> =
        (0..3).map(|d| Collection::new(tb.fabric.mint(LoidKind::Service), 1000 + d)).collect();
    let fed = FederatedCollection::new();
    for (d, c) in per_domain.iter().enumerate() {
        let dom_daemon =
            DataCollectionDaemon::new(tb.fabric.mint(LoidKind::Service), Arc::clone(c));
        for h in tb.unix_hosts.iter().skip(d * 3).take(3) {
            dom_daemon.track_host(Arc::clone(h) as Arc<dyn HostObject>);
        }
        dom_daemon.pull_once(tb.fabric.clock().now());
        fed.add_member(format!("site{d}.edu"), Arc::clone(c));
    }
    (tb, fed, per_domain)
}

#[test]
fn federation_fans_out_across_domains() {
    let (_tb, fed, per_domain) = federated_bed();
    assert_eq!(fed.member_count(), 3);
    assert_eq!(fed.len(), 9);
    for c in &per_domain {
        assert_eq!(c.len(), 3, "each domain collection holds its own hosts");
    }

    // A federated query hits all domains and tags origins.
    let hits = fed.query(r#"match($host_os_name, "IRIX")"#).unwrap();
    assert_eq!(hits.len(), 9);
    let origins: std::collections::BTreeSet<&str> =
        hits.iter().map(|h| h.origin.as_str()).collect();
    assert_eq!(origins.len(), 3);

    // Records carry the right domain attribute for their origin.
    for h in &hits {
        assert_eq!(
            h.record.attrs.get_str(legion::core::host::well_known::DOMAIN),
            Some(h.origin.as_str())
        );
    }
}

#[test]
fn locality_scoped_query_sees_only_one_domain() {
    let (tb, fed, _) = federated_bed();
    let local = fed.query_member("site1.edu", "$host_load >= 0.0").unwrap();
    assert_eq!(local.len(), 3);
    for r in &local {
        assert_eq!(tb.fabric.domain_of(r.member), DomainId(1));
    }
    // locate() finds the owning member for any host.
    let some_host = tb.unix_hosts[7].loid(); // domain 2
    assert_eq!(fed.locate(some_host).as_deref(), Some("site2.edu"));
}

#[test]
fn scheduler_over_a_single_federation_member() {
    use legion::schedulers::{RandomScheduler, SchedCtx};
    // A locality-aware application schedules strictly within its home
    // domain by pointing its SchedCtx at that domain's Collection.
    let (tb, _, per_domain) = federated_bed();
    let class = tb.register_class("local-app", 25, 64);
    let ctx = SchedCtx::new(Arc::clone(&tb.fabric), Arc::clone(&per_domain[2]));
    let scheduler = RandomScheduler::new(8);
    let sched = scheduler
        .compute_schedule(&PlacementRequest::new().class(class, 3), &ctx)
        .unwrap();
    for m in &sched.schedules[0].master.mappings {
        assert_eq!(tb.fabric.domain_of(m.host), DomainId(2), "placement stayed home");
    }
    // And it enacts.
    let enactor = Enactor::new(tb.fabric.clone());
    let fb = enactor.make_reservations(&sched);
    assert!(fb.reserved());
}
