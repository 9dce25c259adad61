#![allow(missing_docs)]
//! E-T2 (Table 2): reservation-table admission throughput per type.

use legion::core::{Loid, LoidKind, ReservationRequest, ReservationType, SimDuration, SimTime};
use legion::hosts::{ReservationTable, TableCapacity};
use legion_bench::harness::Exhibit;

fn table() -> ReservationTable {
    ReservationTable::new(
        Loid::synthetic(LoidKind::Host, 1),
        0xBEEF,
        TableCapacity { cpu_centis: 1600, memory_mb: 16_384 },
    )
}

fn req(rtype: ReservationType, slot: u64) -> ReservationRequest {
    ReservationRequest::instantaneous(
        Loid::synthetic(LoidKind::Class, 1),
        Loid::synthetic(LoidKind::Vault, 1),
        SimDuration::from_secs(60),
    )
    .with_type(rtype)
    .with_demand(10, 64)
    // Disjoint windows so space-sharing admits too.
    .starting_at(SimTime::from_secs(slot * 100))
}

fn main() {
    let g = Exhibit::new("table2_restypes");
    for rtype in ReservationType::ALL {
        g.time_batched(
            format_args!("admit_64_{}", rtype.name().replace(' ', "_")),
            table,
            |mut t| {
                for slot in 0..64u64 {
                    t.make(&req(rtype, slot), SimTime::ZERO).expect("disjoint windows fit");
                }
                t.live_count()
            },
        );
    }

    // Admission check against a loaded table (the hot path under
    // contention: overlap scan + capacity sum).
    let tiny = |secs: u64| {
        ReservationRequest::instantaneous(
            Loid::synthetic(LoidKind::Class, 1),
            Loid::synthetic(LoidKind::Vault, 1),
            SimDuration::from_secs(secs),
        )
        .with_demand(1, 1)
    };
    g.time_batched(
        "admit_against_256_live_shared",
        || {
            let mut t = table();
            for _ in 0..256 {
                t.make(&tiny(10_000), SimTime::ZERO).expect("tiny demands fit");
            }
            t
        },
        |mut t| t.make(&tiny(10), SimTime::ZERO).is_ok(),
    );
}
