//! Legion Object IDentifiers.
//!
//! Every Legion object has a location-independent name. A [`Loid`] here
//! carries the kind of object it names (class, host, vault, instance or
//! service object), a sequence number and a disambiguating nonce. Whoever
//! creates an object names it from its run's [`LoidMinter`] — in a
//! deployment, the fabric's — so identifiers depend on the run's seed and
//! creation order, never on what else the process is doing.

use crate::hash::mix64;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The kind of object a [`Loid`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LoidKind {
    /// A class object (e.g. `LegionClass`, `HostClass`, a user class).
    Class,
    /// A Host object — guardian of a machine's capabilities.
    Host,
    /// A Vault object — persistent storage for OPRs.
    Vault,
    /// An instance of a user class (a running object).
    Instance,
    /// A service object (Collection, Enactor, Scheduler, Monitor...).
    Service,
}

impl LoidKind {
    fn code(self) -> &'static str {
        match self {
            LoidKind::Class => "01",
            LoidKind::Host => "02",
            LoidKind::Vault => "03",
            LoidKind::Instance => "04",
            LoidKind::Service => "05",
        }
    }
}

/// A Legion Object IDentifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Loid {
    /// What kind of object this names.
    pub kind: LoidKind,
    /// Sequence number: the minting counter's value (unique within a lane).
    pub seq: u64,
    /// Disambiguator mixed from `seq` and the minting lane.
    pub nonce: u64,
}

/// Names the objects of one run: a `(lane, counter)` pair.
///
/// The lane is a per-run seed (a fabric derives it from its own seed);
/// the counter numbers the objects the run creates, in creation order.
/// Two runs on the same lane mint the same identifiers in the same
/// order, whatever else runs beside them, and runs on different lanes
/// never mint the same identifier: the nonce is a bijective mix of
/// `seq ^ lane`, so equal sequence numbers on two lanes differ in it.
#[derive(Debug)]
pub struct LoidMinter {
    lane: u64,
    next: AtomicU64,
}

impl LoidMinter {
    /// A minter on `lane` whose first identifier has sequence number 1.
    pub fn new(lane: u64) -> Self {
        LoidMinter { lane, next: AtomicU64::new(1) }
    }

    /// Names a new object of the given kind. Never [`Loid::NIL`]:
    /// sequence numbers start at 1.
    pub fn mint(&self, kind: LoidKind) -> Loid {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        Loid { kind, seq, nonce: mix64(seq ^ self.lane) }
    }
}

impl Loid {
    /// Builds a deterministic identifier, for testbed construction.
    pub fn synthetic(kind: LoidKind, seq: u64) -> Self {
        Loid { kind, seq, nonce: mix64(seq) }
    }

    /// The nil identifier (names nothing).
    pub const NIL: Loid = Loid { kind: LoidKind::Service, seq: 0, nonce: 0 };

    /// Whether this is the nil identifier.
    pub fn is_nil(&self) -> bool {
        self.seq == 0 && self.nonce == 0
    }

    /// A stable 64-bit digest of the identifier (for keyed tags).
    pub fn digest(&self) -> u64 {
        mix64(self.seq ^ self.nonce.rotate_left(23) ^ (self.kind as u64) << 56)
    }
}

impl fmt::Display for Loid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Rendered in the dotted style of Legion LOIDs: 1.<type>.<seq>.<nonce>
        write!(f, "1.{}.{:x}.{:016x}", self.kind.code(), self.seq, self.nonce)
    }
}

impl std::str::FromStr for Loid {
    type Err = String;

    /// Parses the dotted rendering produced by `Display`, so identifiers
    /// can round-trip through attribute databases and Collection records.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        let [one, code, seq, nonce] = parts.as_slice() else {
            return Err(format!("malformed LOID `{s}`"));
        };
        if *one != "1" {
            return Err(format!("unsupported LOID version in `{s}`"));
        }
        let kind = match *code {
            "01" => LoidKind::Class,
            "02" => LoidKind::Host,
            "03" => LoidKind::Vault,
            "04" => LoidKind::Instance,
            "05" => LoidKind::Service,
            other => return Err(format!("unknown LOID kind `{other}`")),
        };
        let seq = u64::from_str_radix(seq, 16).map_err(|e| format!("bad seq: {e}"))?;
        let nonce = u64::from_str_radix(nonce, 16).map_err(|e| format!("bad nonce: {e}"))?;
        Ok(Loid { kind, seq, nonce })
    }
}

impl fmt::Debug for Loid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn minted(lane: u64, n: usize) -> Vec<Loid> {
        let m = LoidMinter::new(lane);
        (0..n).map(|_| m.mint(LoidKind::Instance)).collect()
    }

    #[test]
    fn same_lane_mints_the_same_sequence() {
        let a = minted(7, 1000);
        assert_eq!(a, minted(7, 1000));
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), 1000);
    }

    #[test]
    fn different_lanes_mint_disjoint_loids() {
        let a: HashSet<Loid> = minted(7, 1000).into_iter().collect();
        for lane in [0, 8, 7 << 40, u64::MAX] {
            assert!(minted(lane, 1000).iter().all(|l| !a.contains(l)), "lane {lane:#x}");
        }
    }

    #[test]
    fn minter_never_mints_nil() {
        for lane in [0, 1, u64::MAX] {
            let m = LoidMinter::new(lane);
            assert!((0..1000).map(|_| m.mint(LoidKind::Service)).all(|l| !l.is_nil()));
        }
    }

    #[test]
    fn synthetic_is_deterministic() {
        assert_eq!(Loid::synthetic(LoidKind::Host, 7), Loid::synthetic(LoidKind::Host, 7));
        assert_ne!(Loid::synthetic(LoidKind::Host, 7), Loid::synthetic(LoidKind::Host, 8));
    }

    #[test]
    fn nil_detects() {
        assert!(Loid::NIL.is_nil());
        assert!(!Loid::synthetic(LoidKind::Class, 1).is_nil());
    }

    #[test]
    fn display_format_is_dotted() {
        let l = Loid::synthetic(LoidKind::Host, 255);
        let s = l.to_string();
        assert!(s.starts_with("1.02.ff."), "{s}");
    }

    #[test]
    fn display_parse_roundtrip() {
        for kind in [
            LoidKind::Class,
            LoidKind::Host,
            LoidKind::Vault,
            LoidKind::Instance,
            LoidKind::Service,
        ] {
            let l = LoidMinter::new(3).mint(kind);
            let parsed: Loid = l.to_string().parse().unwrap();
            assert_eq!(parsed, l);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Loid>().is_err());
        assert!("2.02.1.1".parse::<Loid>().is_err());
        assert!("1.99.1.1".parse::<Loid>().is_err());
        assert!("1.02.zz.1".parse::<Loid>().is_err());
        assert!("1.02.1".parse::<Loid>().is_err());
    }

    #[test]
    fn digest_differs_by_kind() {
        let a = Loid { kind: LoidKind::Host, seq: 1, nonce: 2 };
        let b = Loid { kind: LoidKind::Vault, seq: 1, nonce: 2 };
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn serde_roundtrip() {
        let l = Loid::synthetic(LoidKind::Vault, 1);
        let json = serde_json_like(&l);
        assert!(json.contains("Vault"));
    }

    // Tiny stand-in so we don't need serde_json: the derives are what we
    // care about; format details are checked with the debug representation.
    fn serde_json_like(l: &Loid) -> String {
        format!("{:?} {:?}", l.kind, l)
    }
}
