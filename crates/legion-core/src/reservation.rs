//! Reservations — the negotiation currency of Legion scheduling.
//!
//! "To support scheduling, Hosts grant reservations for future service.
//! ... they must be non-forgeable tokens" (§2.1). A reservation has a
//! start time, a duration, and an optional timeout period for confirming
//! an instantaneous reservation; confirmation is implicit when the token
//! is presented with `start_object()` (§3.1).
//!
//! Two type bits — `reuse` and `share` — yield the four reservation types
//! of **Table 2**:
//!
//! | | `share = 0` | `share = 1` |
//! |---|---|---|
//! | `reuse = 0` | one-shot space sharing | one-shot timesharing |
//! | `reuse = 1` | reusable space sharing | reusable timesharing |
//!
//! An unshared reservation allocates the entire resource; shared
//! reservations let the host multiplex. A reusable token may be passed to
//! multiple `start_object()` calls.

use crate::hash::KeyedTag;
use crate::loid::Loid;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The two type bits of a Legion reservation (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReservationType {
    /// `share` bit: may the host multiplex the resource under this token?
    pub share: bool,
    /// `reuse` bit: may the token be presented to multiple
    /// `start_object()` calls?
    pub reuse: bool,
}

impl ReservationType {
    /// One-shot space sharing (`share = 0, reuse = 0`).
    pub const ONE_SHOT_SPACE: ReservationType = ReservationType { share: false, reuse: false };
    /// Reusable space sharing (`share = 0, reuse = 1`) — "the machine is
    /// mine for the time period".
    pub const REUSABLE_SPACE: ReservationType = ReservationType { share: false, reuse: true };
    /// One-shot timesharing (`share = 1, reuse = 0`) — a typical
    /// timesharing system that expires the reservation when the job is
    /// done.
    pub const ONE_SHOT_TIME: ReservationType = ReservationType { share: true, reuse: false };
    /// Reusable timesharing (`share = 1, reuse = 1`).
    pub const REUSABLE_TIME: ReservationType = ReservationType { share: true, reuse: true };

    /// All four types, in Table 2 order.
    pub const ALL: [ReservationType; 4] = [
        Self::ONE_SHOT_SPACE,
        Self::REUSABLE_SPACE,
        Self::ONE_SHOT_TIME,
        Self::REUSABLE_TIME,
    ];

    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match (self.share, self.reuse) {
            (false, false) => "one-shot space sharing",
            (false, true) => "reusable space sharing",
            (true, false) => "one-shot timesharing",
            (true, true) => "reusable timesharing",
        }
    }

    fn bits(self) -> u64 {
        (self.share as u64) << 1 | self.reuse as u64
    }
}

impl fmt::Display for ReservationType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// What a Scheduler/Enactor asks a Host for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReservationRequest {
    /// Class whose instance will run under the reservation.
    pub class: Loid,
    /// Vault that will hold the instance's OPR; the host must verify the
    /// vault is reachable and compatible before granting (§3.1).
    pub vault: Loid,
    /// Reservation type bits.
    pub rtype: ReservationType,
    /// When service begins. `None` means "instantaneous" (now).
    pub start: Option<SimTime>,
    /// How much service is reserved (e.g. an hour of CPU).
    pub duration: SimDuration,
    /// How long the recipient has to confirm an instantaneous
    /// reservation before the host may reclaim it.
    pub timeout: Option<SimDuration>,
    /// CPU share requested in hundredths of a CPU (100 = one processor).
    /// Unshared reservations take the whole machine regardless.
    pub cpu_centis: u32,
    /// Memory requested, in megabytes.
    pub memory_mb: u32,
    /// Administrative domain the request originates from, so hosts can
    /// apply domain-refusal policies ("domains from which it refuses to
    /// accept object instantiation requests", §3.1). `None` is treated
    /// as an anonymous request.
    pub requester_domain: Option<String>,
}

impl ReservationRequest {
    /// A minimal instantaneous request: one CPU's worth of timesharing
    /// service for `duration`, confirmable within `timeout`.
    pub fn instantaneous(class: Loid, vault: Loid, duration: SimDuration) -> Self {
        ReservationRequest {
            class,
            vault,
            rtype: ReservationType::ONE_SHOT_TIME,
            start: None,
            duration,
            timeout: Some(SimDuration::from_secs(30)),
            cpu_centis: 100,
            memory_mb: 64,
            requester_domain: None,
        }
    }

    /// Builder: identify the requesting domain (for autonomy policies).
    pub fn from_domain(mut self, domain: impl Into<String>) -> Self {
        self.requester_domain = Some(domain.into());
        self
    }

    /// Builder: set the reservation type.
    pub fn with_type(mut self, rtype: ReservationType) -> Self {
        self.rtype = rtype;
        self
    }

    /// Builder: set a future start time.
    pub fn starting_at(mut self, start: SimTime) -> Self {
        self.start = Some(start);
        self
    }

    /// Builder: set the resource demand.
    pub fn with_demand(mut self, cpu_centis: u32, memory_mb: u32) -> Self {
        self.cpu_centis = cpu_centis;
        self.memory_mb = memory_mb;
        self
    }
}

/// A granted reservation.
///
/// "Our current implementation of reservations encodes both the Host and
/// the Vault which will be used for execution of the object" (§2.1). The
/// `tag` is a keyed hash over every other field under the host's secret;
/// only the granting host can mint or verify it, and no other object in
/// the system needs to decode it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReservationToken {
    /// Host-local serial number of this reservation.
    pub serial: u64,
    /// The granting host.
    pub host: Loid,
    /// The vault encoded into the reservation.
    pub vault: Loid,
    /// The class the reservation was made for.
    pub class: Loid,
    /// Type bits.
    pub rtype: ReservationType,
    /// Service start time (resolved; never `None` once granted).
    pub start: SimTime,
    /// Reserved service duration.
    pub duration: SimDuration,
    /// Confirmation deadline for instantaneous reservations.
    pub confirm_by: Option<SimTime>,
    /// Granted CPU share (hundredths of a CPU).
    pub cpu_centis: u32,
    /// Granted memory (MB).
    pub memory_mb: u32,
    /// Keyed authentication tag.
    pub tag: u64,
}

impl ReservationToken {
    /// End of the service window.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Whether the window covers `now`.
    pub fn covers(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end()
    }
}

/// Mints and verifies reservation tokens under a host secret key.
///
/// ```
/// use legion_core::{LoidKind, LoidMinter, ReservationRequest, SimDuration, SimTime, TokenMinter};
///
/// let loids = LoidMinter::new(1);
/// let host = loids.mint(LoidKind::Host);
/// let mut minter = TokenMinter::new(host, 0xDEAD_BEEF);
/// let req = ReservationRequest::instantaneous(
///     loids.mint(LoidKind::Class),
///     loids.mint(LoidKind::Vault),
///     SimDuration::from_secs(3600), // an hour of CPU (the paper's example)
/// );
/// let token = minter.mint(&req, SimTime::ZERO, None);
/// assert!(minter.verify(&token));
///
/// // Any tampering invalidates the tag — tokens are non-forgeable.
/// let mut forged = token.clone();
/// forged.duration = SimDuration::from_secs(999_999);
/// assert!(!minter.verify(&forged));
/// ```
#[derive(Debug)]
pub struct TokenMinter {
    host: Loid,
    secret: u64,
    next_serial: u64,
}

impl TokenMinter {
    /// Creates a minter for `host` with the given secret.
    pub fn new(host: Loid, secret: u64) -> Self {
        TokenMinter { host, secret, next_serial: 1 }
    }

    /// Mints a token for a granted request.
    pub fn mint(
        &mut self,
        req: &ReservationRequest,
        start: SimTime,
        confirm_by: Option<SimTime>,
    ) -> ReservationToken {
        let serial = self.next_serial;
        self.next_serial += 1;
        let mut tok = ReservationToken {
            serial,
            host: self.host,
            vault: req.vault,
            class: req.class,
            rtype: req.rtype,
            start,
            duration: req.duration,
            confirm_by,
            cpu_centis: req.cpu_centis,
            memory_mb: req.memory_mb,
            tag: 0,
        };
        tok.tag = self.compute_tag(&tok);
        tok
    }

    /// Verifies that `tok` was minted by this host and is untampered.
    pub fn verify(&self, tok: &ReservationToken) -> bool {
        tok.host == self.host && tok.tag == self.compute_tag(tok)
    }

    fn compute_tag(&self, tok: &ReservationToken) -> u64 {
        let mut t = KeyedTag::new(self.secret);
        t.write_u64(tok.serial)
            .write_u64(tok.host.digest())
            .write_u64(tok.vault.digest())
            .write_u64(tok.class.digest())
            .write_u64(tok.rtype.bits())
            .write_u64(tok.start.as_micros())
            .write_u64(tok.duration.as_micros())
            .write_u64(tok.confirm_by.map(|t| t.as_micros()).unwrap_or(u64::MAX))
            .write_u64(tok.cpu_centis as u64)
            .write_u64(tok.memory_mb as u64);
        t.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loid::LoidKind;

    fn ids() -> (Loid, Loid, Loid) {
        (
            Loid::synthetic(LoidKind::Host, 1),
            Loid::synthetic(LoidKind::Vault, 2),
            Loid::synthetic(LoidKind::Class, 3),
        )
    }

    #[test]
    fn table2_names() {
        assert_eq!(ReservationType::ONE_SHOT_SPACE.name(), "one-shot space sharing");
        assert_eq!(ReservationType::REUSABLE_SPACE.name(), "reusable space sharing");
        assert_eq!(ReservationType::ONE_SHOT_TIME.name(), "one-shot timesharing");
        assert_eq!(ReservationType::REUSABLE_TIME.name(), "reusable timesharing");
    }

    #[test]
    fn mint_verify_roundtrip() {
        let (h, v, c) = ids();
        let mut minter = TokenMinter::new(h, 0xDEAD_BEEF);
        let req = ReservationRequest::instantaneous(c, v, SimDuration::from_secs(3600));
        let tok = minter.mint(&req, SimTime::ZERO, Some(SimTime::from_secs(30)));
        assert!(minter.verify(&tok));
    }

    #[test]
    fn tampered_token_rejected() {
        let (h, v, c) = ids();
        let mut minter = TokenMinter::new(h, 42);
        let req = ReservationRequest::instantaneous(c, v, SimDuration::from_secs(60));
        let tok = minter.mint(&req, SimTime::ZERO, None);

        let mut forged = tok.clone();
        forged.duration = SimDuration::from_secs(9999);
        assert!(!minter.verify(&forged));

        let mut forged = tok.clone();
        forged.vault = Loid::synthetic(LoidKind::Vault, 99);
        assert!(!minter.verify(&forged));

        let mut forged = tok.clone();
        forged.rtype = ReservationType::REUSABLE_SPACE;
        assert!(!minter.verify(&forged));
    }

    #[test]
    fn foreign_minter_rejects() {
        let (h, v, c) = ids();
        let mut ours = TokenMinter::new(h, 1);
        let theirs = TokenMinter::new(h, 2); // same host LOID, different secret
        let req = ReservationRequest::instantaneous(c, v, SimDuration::from_secs(60));
        let tok = ours.mint(&req, SimTime::ZERO, None);
        assert!(!theirs.verify(&tok));
    }

    #[test]
    fn window_covers() {
        let (h, v, c) = ids();
        let mut minter = TokenMinter::new(h, 7);
        let req = ReservationRequest::instantaneous(c, v, SimDuration::from_secs(10))
            .starting_at(SimTime::from_secs(100));
        let tok = minter.mint(&req, SimTime::from_secs(100), None);
        assert!(!tok.covers(SimTime::from_secs(99)));
        assert!(tok.covers(SimTime::from_secs(100)));
        assert!(tok.covers(SimTime::from_secs(109)));
        assert!(!tok.covers(SimTime::from_secs(110)));
    }

    #[test]
    fn serials_are_unique() {
        let (h, v, c) = ids();
        let mut minter = TokenMinter::new(h, 7);
        let req = ReservationRequest::instantaneous(c, v, SimDuration::from_secs(1));
        let a = minter.mint(&req, SimTime::ZERO, None);
        let b = minter.mint(&req, SimTime::ZERO, None);
        assert_ne!(a.serial, b.serial);
        assert_ne!(a.tag, b.tag);
    }

    #[test]
    fn builder_paths() {
        let (_, v, c) = ids();
        let r = ReservationRequest::instantaneous(c, v, SimDuration::from_secs(1))
            .with_type(ReservationType::REUSABLE_SPACE)
            .with_demand(400, 2048)
            .starting_at(SimTime::from_secs(5));
        assert_eq!(r.rtype, ReservationType::REUSABLE_SPACE);
        assert_eq!(r.cpu_centis, 400);
        assert_eq!(r.memory_mb, 2048);
        assert_eq!(r.start, Some(SimTime::from_secs(5)));
    }
}
