//! Property tests: link bandwidth is never oversubscribed.

use legion_core::{Loid, LoidKind, SimDuration, SimTime};
use legion_fabric::DomainId;
use legion_network::NetworkObject;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Reserve { mbps: u32 },
    CancelNth(usize),
    ConfirmNth(usize),
    Sweep,
}

fn link_loid() -> Loid {
    Loid::synthetic(LoidKind::Service, 1)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..80).prop_map(|mbps| Op::Reserve { mbps }),
        (0usize..12).prop_map(Op::CancelNth),
        (0usize..12).prop_map(Op::ConfirmNth),
        Just(Op::Sweep),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Under arbitrary reserve/cancel/confirm/sweep sequences, held
    /// bandwidth never exceeds capacity, and cancel always frees.
    #[test]
    fn capacity_invariant(ops in proptest::collection::vec(arb_op(), 1..50)) {
        const CAP: u32 = 100;
        let link = NetworkObject::new(link_loid(), DomainId(0), DomainId(1), CAP, 5);
        let class = Loid::synthetic(LoidKind::Class, 1);
        let mut now = SimTime::ZERO;
        let mut tokens = Vec::new();

        for op in ops {
            match op {
                Op::Reserve { mbps } => {
                    if let Ok(tok) =
                        link.reserve_bandwidth(class, mbps, SimDuration::from_secs(300), now)
                    {
                        tokens.push(tok);
                    }
                }
                Op::CancelNth(i) if !tokens.is_empty() => {
                    let tok = tokens[i % tokens.len()].clone();
                    link.cancel(&tok).expect("genuine token");
                }
                Op::ConfirmNth(i) if !tokens.is_empty() => {
                    let tok = tokens[i % tokens.len()].clone();
                    let _ = link.confirm(&tok, now); // may be consumed/cancelled
                }
                Op::CancelNth(_) | Op::ConfirmNth(_) => {}
                Op::Sweep => {
                    now += SimDuration::from_secs(30);
                    link.sweep(now);
                }
            }
            prop_assert!(
                link.held_mbps(now) <= CAP,
                "held {} over capacity {CAP}",
                link.held_mbps(now)
            );
        }
    }

    /// Reserving exactly to capacity always succeeds on an empty link,
    /// and one more Mbps is always refused.
    #[test]
    fn exact_fill(parts in proptest::collection::vec(1u32..40, 1..8)) {
        let total: u32 = parts.iter().sum();
        let link = NetworkObject::new(link_loid(), DomainId(0), DomainId(1), total, 5);
        let class = Loid::synthetic(LoidKind::Class, 1);
        for &mbps in &parts {
            link.reserve_bandwidth(class, mbps, SimDuration::from_secs(60), SimTime::ZERO)
                .expect("fits by construction");
        }
        prop_assert!(link
            .reserve_bandwidth(class, 1, SimDuration::from_secs(60), SimTime::ZERO)
            .is_err());
        prop_assert_eq!(link.held_mbps(SimTime::from_secs(1)), total);
    }
}
