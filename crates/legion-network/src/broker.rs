//! The Network Broker — Enactor-style co-allocation of link bandwidth.

use crate::directory::NetworkDirectory;
use crate::netobj::canonical;
use legion_core::{LegionError, Loid, ReservationToken, SimDuration, SimTime};
use legion_fabric::{DomainId, Fabric};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-link bandwidth demand, in Mbps.
pub type LinkDemand = BTreeMap<(DomainId, DomainId), u32>;

/// A granted network plan: the link tokens, ready to confirm or cancel.
#[derive(Debug)]
pub struct NetworkPlan {
    /// (link, token) pairs in grant order.
    pub tokens: Vec<((DomainId, DomainId), ReservationToken)>,
}

impl NetworkPlan {
    /// Total Mbps granted across links.
    pub fn total_mbps(&self) -> u64 {
        self.tokens.iter().map(|(_, t)| t.cpu_centis as u64).sum()
    }
}

/// Co-allocates bandwidth reservations across Network Objects.
pub struct NetworkBroker {
    directory: Arc<NetworkDirectory>,
}

impl NetworkBroker {
    /// A broker over `directory`.
    pub fn new(directory: Arc<NetworkDirectory>) -> Self {
        NetworkBroker { directory }
    }

    /// The underlying directory.
    pub fn directory(&self) -> &Arc<NetworkDirectory> {
        &self.directory
    }

    /// Computes per-link demand for an application's communication
    /// edges: `edges` lists (host, host, mbps) flows; intra-domain flows
    /// are free (the fabric's LAN is unmanaged), inter-domain flows
    /// accumulate on their link.
    pub fn demand_for_edges(
        fabric: &Arc<Fabric>,
        edges: &[(Loid, Loid, u32)],
    ) -> LinkDemand {
        let mut demand = LinkDemand::new();
        for &(a, b, mbps) in edges {
            let (da, db) = (fabric.domain_of(a), fabric.domain_of(b));
            if da != db {
                *demand.entry(canonical(da, db)).or_insert(0) += mbps;
            }
        }
        demand
    }

    /// Reserves every link in `demand` for `class`, all-or-nothing: on
    /// any refusal the already-granted links are cancelled and the
    /// refusing error is returned (with the plan untouched, exactly the
    /// Enactor's co-allocation discipline).
    pub fn reserve(
        &self,
        class: Loid,
        demand: &LinkDemand,
        duration: SimDuration,
        now: SimTime,
    ) -> Result<NetworkPlan, LegionError> {
        let mut granted: Vec<((DomainId, DomainId), ReservationToken)> = Vec::new();
        for (&link, &mbps) in demand {
            let obj = match self.directory.lookup(link.0, link.1) {
                Some(o) => o,
                None => {
                    self.rollback(&granted);
                    return Err(LegionError::Other(format!(
                        "no network object manages link {:?}-{:?}",
                        link.0, link.1
                    )));
                }
            };
            match obj.reserve_bandwidth(class, mbps, duration, now) {
                Ok(tok) => granted.push((link, tok)),
                Err(e) => {
                    self.rollback(&granted);
                    return Err(e);
                }
            }
        }
        Ok(NetworkPlan { tokens: granted })
    }

    /// Confirms every token in a plan (the flows start).
    pub fn confirm(&self, plan: &NetworkPlan, now: SimTime) -> Result<(), LegionError> {
        for (link, tok) in &plan.tokens {
            let obj = self
                .directory
                .lookup(link.0, link.1)
                .ok_or_else(|| LegionError::Other("link vanished".into()))?;
            obj.confirm(tok, now)?;
        }
        Ok(())
    }

    /// Cancels every token in a plan.
    pub fn cancel(&self, plan: &NetworkPlan) {
        self.rollback(&plan.tokens);
    }

    fn rollback(&self, granted: &[((DomainId, DomainId), ReservationToken)]) {
        for (link, tok) in granted {
            if let Some(obj) = self.directory.lookup(link.0, link.1) {
                let _ = obj.cancel(tok);
            }
        }
    }
}

/// 4-neighbour communication edges of a rows×cols grid placement:
/// (rank_a_host, rank_b_host, mbps) per adjacent pair, given the
/// mapping of rank index (row-major) to host.
pub fn grid_edges(
    hosts_by_rank: &[Loid],
    rows: usize,
    cols: usize,
    mbps_per_edge: u32,
) -> Vec<(Loid, Loid, u32)> {
    assert_eq!(hosts_by_rank.len(), rows * cols, "rank/host count mismatch");
    let idx = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((hosts_by_rank[idx(r, c)], hosts_by_rank[idx(r, c + 1)], mbps_per_edge));
            }
            if r + 1 < rows {
                edges.push((hosts_by_rank[idx(r, c)], hosts_by_rank[idx(r + 1, c)], mbps_per_edge));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netobj::NetworkObject;
    use legion_core::{Loid, LoidKind};
    use legion_fabric::DomainTopology;

    fn fabric3() -> Arc<Fabric> {
        let f = Fabric::new(
            DomainTopology::uniform(3, SimDuration::from_micros(1), SimDuration::from_millis(1)),
            1,
        );
        // Place synthetic "hosts" in domains 0, 1, 2.
        for d in 0..3u16 {
            f.place(Loid::synthetic(LoidKind::Host, d as u64 + 1), DomainId(d));
        }
        f
    }

    fn h(d: u64) -> Loid {
        Loid::synthetic(LoidKind::Host, d + 1)
    }

    #[test]
    fn demand_ignores_intra_domain_flows() {
        let f = fabric3();
        let edges = vec![(h(0), h(0), 50), (h(0), h(1), 10), (h(1), h(0), 15), (h(1), h(2), 5)];
        let demand = NetworkBroker::demand_for_edges(&f, &edges);
        assert_eq!(demand.len(), 2);
        // Both directions of 0-1 accumulate on the canonical link.
        assert_eq!(demand[&(DomainId(0), DomainId(1))], 25);
        assert_eq!(demand[&(DomainId(1), DomainId(2))], 5);
    }

    #[test]
    fn all_or_nothing_reservation() {
        let f = fabric3();
        let dir = NetworkDirectory::new();
        let link = |seq| Loid::synthetic(LoidKind::Service, seq);
        dir.add(NetworkObject::new(link(1), DomainId(0), DomainId(1), 100, 1));
        dir.add(NetworkObject::new(link(2), DomainId(1), DomainId(2), 10, 2)); // tiny
        let broker = NetworkBroker::new(Arc::clone(&dir));
        let class = Loid::synthetic(LoidKind::Class, 1);

        // Demand exceeds the tiny link: everything rolls back.
        let edges = vec![(h(0), h(1), 50), (h(1), h(2), 50)];
        let demand = NetworkBroker::demand_for_edges(&f, &edges);
        let err = broker.reserve(class, &demand, SimDuration::from_secs(60), SimTime::ZERO);
        assert!(err.is_err());
        let big = dir.lookup(DomainId(0), DomainId(1)).unwrap();
        assert_eq!(big.held_mbps(SimTime::from_secs(1)), 0, "rollback freed the big link");

        // A feasible demand succeeds and holds both links.
        let edges = vec![(h(0), h(1), 50), (h(1), h(2), 10)];
        let demand = NetworkBroker::demand_for_edges(&f, &edges);
        let plan = broker
            .reserve(class, &demand, SimDuration::from_secs(60), SimTime::ZERO)
            .unwrap();
        assert_eq!(plan.tokens.len(), 2);
        assert_eq!(plan.total_mbps(), 60);
        assert_eq!(big.held_mbps(SimTime::from_secs(1)), 50);

        broker.cancel(&plan);
        assert_eq!(big.held_mbps(SimTime::from_secs(1)), 0);
    }

    #[test]
    fn missing_link_object_is_an_error() {
        let f = fabric3();
        let broker = NetworkBroker::new(NetworkDirectory::new());
        let demand =
            NetworkBroker::demand_for_edges(&f, &[(h(0), h(1), 10)]);
        assert!(broker
            .reserve(
                Loid::synthetic(LoidKind::Class, 1),
                &demand,
                SimDuration::from_secs(60),
                SimTime::ZERO
            )
            .is_err());
    }

    #[test]
    fn grid_edges_count() {
        let hosts: Vec<Loid> = (0..6).map(h).collect();
        let edges = grid_edges(&hosts, 2, 3, 7);
        // 2x3 grid: horizontal 2*2=4, vertical 3*1=3 → 7 edges.
        assert_eq!(edges.len(), 7);
        assert!(edges.iter().all(|&(_, _, m)| m == 7));
    }
}
