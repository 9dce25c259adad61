//! The Network Object: guardian of one inter-domain link.

use legion_core::{
    AttributeDb, LegionError, Loid, ReservationRequest, ReservationStatus, ReservationToken,
    ReservationType, SimDuration, SimTime,
};
use legion_fabric::DomainId;
use legion_hosts::{ReservationTable, TableCapacity};
use parking_lot::Mutex;

/// Canonicalizes a domain pair so both directions name the same link.
pub(crate) fn canonical(a: DomainId, b: DomainId) -> (DomainId, DomainId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// A reservation-managed communication link between two domains.
///
/// Bandwidth is accounted in Mbps through the standard reservation
/// table: the link's capacity plays the CPU axis, memory is unbounded.
/// All four Table 2 reservation types are meaningful: a dedicated
/// circuit is `share = 0`; ordinary multiplexed flows are `share = 1`.
///
/// ```
/// use legion_core::{LoidKind, LoidMinter, SimDuration, SimTime};
/// use legion_fabric::DomainId;
/// use legion_network::NetworkObject;
///
/// let loids = LoidMinter::new(1);
/// let link =
///     NetworkObject::new(loids.mint(LoidKind::Service), DomainId(0), DomainId(1), 100, 7);
/// let class = loids.mint(LoidKind::Class);
/// let tok = link
///     .reserve_bandwidth(class, 40, SimDuration::from_secs(600), SimTime::ZERO)
///     .unwrap();
/// assert_eq!(link.held_mbps(SimTime::from_secs(1)), 40);
/// link.cancel(&tok).unwrap();
/// assert_eq!(link.held_mbps(SimTime::from_secs(1)), 0);
/// ```
pub struct NetworkObject {
    loid: Loid,
    link: (DomainId, DomainId),
    capacity_mbps: u32,
    table: Mutex<ReservationTable>,
}

impl NetworkObject {
    /// The link object `loid` between `a` and `b` with the given capacity.
    pub fn new(loid: Loid, a: DomainId, b: DomainId, capacity_mbps: u32, seed: u64) -> Self {
        assert!(capacity_mbps > 0, "a link needs capacity");
        let secret = legion_core::hash::mix64(seed ^ loid.digest());
        NetworkObject {
            loid,
            link: canonical(a, b),
            capacity_mbps,
            table: Mutex::new(ReservationTable::new(
                loid,
                secret,
                TableCapacity { cpu_centis: capacity_mbps, memory_mb: u32::MAX },
            )),
        }
    }

    /// This object's identifier.
    pub fn loid(&self) -> Loid {
        self.loid
    }

    /// The (canonical) domain pair this object guards.
    pub fn link(&self) -> (DomainId, DomainId) {
        self.link
    }

    /// Total link capacity in Mbps.
    pub fn capacity_mbps(&self) -> u32 {
        self.capacity_mbps
    }

    /// Requests `mbps` of shared bandwidth for `duration`, on behalf of
    /// `class`'s communication.
    pub fn reserve_bandwidth(
        &self,
        class: Loid,
        mbps: u32,
        duration: SimDuration,
        now: SimTime,
    ) -> Result<ReservationToken, LegionError> {
        self.reserve_with_type(class, mbps, duration, now, ReservationType::ONE_SHOT_TIME)
    }

    /// As [`Self::reserve_bandwidth`] with an explicit reservation type
    /// (`share = 0` dedicates the entire link).
    pub fn reserve_with_type(
        &self,
        class: Loid,
        mbps: u32,
        duration: SimDuration,
        now: SimTime,
        rtype: ReservationType,
    ) -> Result<ReservationToken, LegionError> {
        let req = ReservationRequest {
            class,
            vault: Loid::NIL,
            rtype,
            start: None,
            duration,
            timeout: Some(SimDuration::from_secs(60)),
            cpu_centis: mbps,
            memory_mb: 0,
            requester_domain: None,
        };
        let held = self.held_mbps(now);
        self.table.lock().make(&req, now).map_err(|e| match e {
            // Rephrase the table's host-vocabulary denial in link terms.
            LegionError::ReservationDenied { host, .. } => LegionError::ReservationDenied {
                host,
                reason: format!(
                    "link {:?}-{:?} cannot grant {mbps} Mbps ({held}/{} Mbps held)",
                    self.link.0, self.link.1, self.capacity_mbps
                ),
            },
            other => other,
        })
    }

    /// Confirms a bandwidth reservation (the flow starts).
    pub fn confirm(&self, token: &ReservationToken, now: SimTime) -> Result<(), LegionError> {
        self.table.lock().consume(token, now)
    }

    /// Releases a bandwidth reservation.
    pub fn cancel(&self, token: &ReservationToken) -> Result<(), LegionError> {
        self.table.lock().cancel(token)
    }

    /// Status of a reservation.
    pub fn check(
        &self,
        token: &ReservationToken,
        now: SimTime,
    ) -> Result<ReservationStatus, LegionError> {
        self.table.lock().check(token, now)
    }

    /// Expires lapsed reservations.
    pub fn sweep(&self, now: SimTime) {
        self.table.lock().sweep(now);
    }

    /// Mbps held by live reservations covering `now`.
    pub fn held_mbps(&self, now: SimTime) -> u32 {
        self.table.lock().held_at(now).0
    }

    /// Attribute snapshot (queryable like any Legion object).
    pub fn attributes(&self, now: SimTime) -> AttributeDb {
        AttributeDb::new()
            .with("net_link_a", self.link.0 .0 as i64)
            .with("net_link_b", self.link.1 .0 as i64)
            .with("net_capacity_mbps", self.capacity_mbps as i64)
            .with("net_held_mbps", self.held_mbps(now) as i64)
            .with(
                "net_free_mbps",
                (self.capacity_mbps.saturating_sub(self.held_mbps(now))) as i64,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::LoidKind;

    fn link_loid() -> Loid {
        Loid::synthetic(LoidKind::Service, 1)
    }

    fn class() -> Loid {
        Loid::synthetic(LoidKind::Class, 1)
    }

    #[test]
    fn canonicalization() {
        let n = NetworkObject::new(link_loid(), DomainId(3), DomainId(1), 100, 7);
        assert_eq!(n.link(), (DomainId(1), DomainId(3)));
    }

    #[test]
    fn shared_bandwidth_admits_to_capacity() {
        let n = NetworkObject::new(link_loid(), DomainId(0), DomainId(1), 100, 7);
        let d = SimDuration::from_secs(600);
        n.reserve_bandwidth(class(), 40, d, SimTime::ZERO).unwrap();
        n.reserve_bandwidth(class(), 40, d, SimTime::ZERO).unwrap();
        assert!(n.reserve_bandwidth(class(), 40, d, SimTime::ZERO).is_err());
        n.reserve_bandwidth(class(), 20, d, SimTime::ZERO).unwrap();
        assert_eq!(n.held_mbps(SimTime::from_secs(1)), 100);
    }

    #[test]
    fn dedicated_circuit_excludes_flows() {
        let n = NetworkObject::new(link_loid(), DomainId(0), DomainId(1), 100, 7);
        let d = SimDuration::from_secs(600);
        n.reserve_with_type(class(), 10, d, SimTime::ZERO, ReservationType::REUSABLE_SPACE)
            .unwrap();
        // Even a 1 Mbps flow is refused while the circuit holds the link.
        assert!(n.reserve_bandwidth(class(), 1, d, SimTime::ZERO).is_err());
    }

    #[test]
    fn cancellation_frees_bandwidth() {
        let n = NetworkObject::new(link_loid(), DomainId(0), DomainId(1), 50, 7);
        let d = SimDuration::from_secs(600);
        let tok = n.reserve_bandwidth(class(), 50, d, SimTime::ZERO).unwrap();
        assert!(n.reserve_bandwidth(class(), 10, d, SimTime::ZERO).is_err());
        n.cancel(&tok).unwrap();
        n.reserve_bandwidth(class(), 10, d, SimTime::ZERO).unwrap();
    }

    #[test]
    fn confirmation_and_expiry() {
        let n = NetworkObject::new(link_loid(), DomainId(0), DomainId(1), 50, 7);
        let tok = n
            .reserve_bandwidth(class(), 10, SimDuration::from_secs(600), SimTime::ZERO)
            .unwrap();
        n.confirm(&tok, SimTime::from_secs(1)).unwrap();
        assert_eq!(
            n.check(&tok, SimTime::from_secs(2)).unwrap(),
            ReservationStatus::Consumed
        );
        // A second, unconfirmed reservation lapses at its timeout.
        let tok2 = n
            .reserve_bandwidth(class(), 10, SimDuration::from_secs(600), SimTime::ZERO)
            .unwrap();
        n.sweep(SimTime::from_secs(120));
        assert_eq!(
            n.check(&tok2, SimTime::from_secs(120)).unwrap(),
            ReservationStatus::Expired
        );
    }

    #[test]
    fn attributes_report_utilization() {
        let n = NetworkObject::new(link_loid(), DomainId(0), DomainId(2), 100, 7);
        n.reserve_bandwidth(class(), 30, SimDuration::from_secs(600), SimTime::ZERO)
            .unwrap();
        let a = n.attributes(SimTime::from_secs(1));
        assert_eq!(a.get_i64("net_capacity_mbps"), Some(100));
        assert_eq!(a.get_i64("net_held_mbps"), Some(30));
        assert_eq!(a.get_i64("net_free_mbps"), Some(70));
        assert_eq!(a.get_i64("net_link_b"), Some(2));
    }
}
