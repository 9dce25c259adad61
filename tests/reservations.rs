//! Cross-crate reservation semantics: Table 2 behaviour observed through
//! the public Host interface on a live testbed.

use legion::prelude::*;
use legion::core::ObjectSpec;

fn bed() -> (Testbed, Loid) {
    let tb = Testbed::build(TestbedConfig {
        domains: 1,
        unix_per_domain: 0,
        smp_per_domain: 1, // one 4-CPU machine
        ..TestbedConfig::local(0, 9)
    });
    let class = tb.register_class("w", 100, 128);
    (tb, class)
}

/// A start request for a new instance of `class`, named by the bed.
fn spec(tb: &Testbed, class: Loid) -> ObjectSpec {
    ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance))
}

#[test]
fn one_shot_space_sharing_takes_the_machine_once() {
    let (tb, class) = bed();
    let host = &tb.unix_hosts[0];
    let vault = host.get_compatible_vaults()[0];
    let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(600))
        .with_type(ReservationType::ONE_SHOT_SPACE);
    let tok = host.make_reservation(&req, tb.fabric.clock().now()).unwrap();
    // The whole 4-CPU machine is held: even a tiny shared request fails.
    let small = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(10))
        .with_demand(10, 16);
    assert!(host.make_reservation(&small, tb.fabric.clock().now()).is_err());
    // One start consumes the token.
    host.start_object(&tok, &[spec(&tb, class)], tb.fabric.clock().now()).unwrap();
    assert!(matches!(
        host.start_object(&tok, &[spec(&tb, class)], tb.fabric.clock().now()),
        Err(LegionError::ReservationConsumed)
    ));
}

#[test]
fn reusable_space_sharing_is_machine_is_mine() {
    let (tb, class) = bed();
    let host = &tb.unix_hosts[0];
    let vault = host.get_compatible_vaults()[0];
    let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(600))
        .with_type(ReservationType::REUSABLE_SPACE);
    let tok = host.make_reservation(&req, tb.fabric.clock().now()).unwrap();
    // "The machine is mine for the time period": start several batches
    // under the same token.
    for _ in 0..3 {
        host.start_object(&tok, &[spec(&tb, class)], tb.fabric.clock().now()).unwrap();
    }
    assert_eq!(host.running_objects().len(), 3);
}

#[test]
fn smp_multi_object_start_under_one_token() {
    // §3.1: "The StartObject function can create one or more objects;
    // this is important ... for multiprocessor systems."
    let (tb, class) = bed();
    let host = &tb.unix_hosts[0];
    let vault = host.get_compatible_vaults()[0];
    let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(600))
        .with_demand(400, 512); // all four CPUs
    let tok = host.make_reservation(&req, tb.fabric.clock().now()).unwrap();
    let specs: Vec<_> = (0..4).map(|_| spec(&tb, class)).collect();
    let started = host.start_object(&tok, &specs, tb.fabric.clock().now()).unwrap();
    assert_eq!(started.len(), 4);
    // All four are distinct objects.
    let set: std::collections::BTreeSet<_> = started.iter().collect();
    assert_eq!(set.len(), 4);
}

#[test]
fn future_reservations_and_timeout_confirmation() {
    let (tb, class) = bed();
    let host = &tb.unix_hosts[0];
    let vault = host.get_compatible_vaults()[0];

    // Reserve an hour of CPU starting at noon (paper's example).
    let noon = SimTime::from_secs(12 * 3600);
    let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(3600))
        .with_type(ReservationType::REUSABLE_SPACE)
        .starting_at(noon);
    let tok = host.make_reservation(&req, tb.fabric.clock().now()).unwrap();
    // Too early: refused.
    assert!(host
        .start_object(&tok, &[spec(&tb, class)], SimTime::from_secs(11 * 3600))
        .is_err());
    // At noon: accepted.
    tb.fabric.clock().advance_to(noon);
    host.start_object(&tok, &[spec(&tb, class)], noon).unwrap();

    // Instantaneous reservation with a confirmation timeout lapses.
    // (First leave the exclusive noon-hour window behind.)
    tb.fabric.clock().advance_to(SimTime::from_secs(13 * 3600 + 1));
    host.reassess(tb.fabric.clock().now());
    let req2 = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(60))
        .with_demand(10, 16);
    let now = tb.fabric.clock().now();
    let tok2 = host.make_reservation(&req2, now).unwrap();
    // Default timeout is 30 s; wait 40 virtual seconds.
    let later = tb.fabric.clock().advance(SimDuration::from_secs(40));
    host.reassess(later);
    assert!(matches!(
        host.start_object(&tok2, &[spec(&tb, class)], later),
        Err(LegionError::ReservationExpired)
    ));
}

#[test]
fn tokens_do_not_transfer_between_hosts() {
    let tb = Testbed::build(TestbedConfig::local(2, 10));
    let class = tb.register_class("w", 50, 64);
    let (h0, h1) = (&tb.unix_hosts[0], &tb.unix_hosts[1]);
    let vault = h0.get_compatible_vaults()[0];
    let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(60));
    let tok = h0.make_reservation(&req, tb.fabric.clock().now()).unwrap();
    // Presenting host 0's token to host 1 fails verification.
    assert!(matches!(
        h1.start_object(&tok, &[spec(&tb, class)], tb.fabric.clock().now()),
        Err(LegionError::InvalidToken)
    ));
    assert!(matches!(h1.cancel_reservation(&tok), Err(LegionError::InvalidToken)));
}

#[test]
fn unconfirmed_reservation_is_reclaimed_and_stale_token_refused() {
    // §3.1 / Table 2: an instantaneous reservation not confirmed by
    // StartObject within the timeout is reclaimed — the capacity must be
    // grantable to someone else, and the stale token must stay dead.
    let (tb, class) = bed();
    let host = &tb.unix_hosts[0];
    let vault = host.get_compatible_vaults()[0];

    // Hold the whole 4-CPU machine, unconfirmed.
    let all = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(600))
        .with_demand(400, 512);
    let stale = host.make_reservation(&all, tb.fabric.clock().now()).unwrap();
    // While held, a competing full-machine request is refused.
    assert!(host.make_reservation(&all, tb.fabric.clock().now()).is_err());

    // Confirmation timeout (30s default) lapses; the sweep reclaims.
    let later = tb.fabric.clock().advance(SimDuration::from_secs(40));
    host.reassess(later);

    // The capacity is someone else's for the taking...
    let tok2 = host.make_reservation(&all, later).unwrap();
    // ...and the stale token is refused at every entry point.
    assert!(matches!(
        host.start_object(&stale, &[spec(&tb, class)], later),
        Err(LegionError::ReservationExpired)
    ));
    assert_eq!(
        host.check_reservation(&stale, later).unwrap(),
        legion::core::ReservationStatus::Expired
    );
    // The fresh token still works.
    host.start_object(&tok2, &[spec(&tb, class)], later).unwrap();
}

#[test]
fn crash_expires_reservations_and_restart_reclaims_resources() {
    // A fail-stopped host loses its volatile reservation state; tokens
    // granted before the crash must not be honoured after restart, and
    // the restarted host must have its full capacity back.
    let (tb, class) = bed();
    let host = &tb.unix_hosts[0];
    let vault = host.get_compatible_vaults()[0];
    let all = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(600))
        .with_demand(400, 512);
    let pre_crash = host.make_reservation(&all, tb.fabric.clock().now()).unwrap();

    host.crash();
    // Down: every call answers HostDown.
    assert!(matches!(
        host.make_reservation(&all, tb.fabric.clock().now()),
        Err(LegionError::HostDown(_))
    ));
    assert!(matches!(
        host.start_object(&pre_crash, &[spec(&tb, class)], tb.fabric.clock().now()),
        Err(LegionError::HostDown(_))
    ));

    let later = tb.fabric.clock().advance(SimDuration::from_secs(60));
    host.restart(later);

    // Resources reclaimed: the full machine is grantable again.
    let fresh = host.make_reservation(&all, later).unwrap();
    // The pre-crash token fails deterministically — the serial counter
    // survives the crash, so it can never be confused with a new grant.
    assert!(matches!(
        host.start_object(&pre_crash, &[spec(&tb, class)], later),
        Err(LegionError::ReservationExpired)
    ));
    assert_ne!(fresh.serial, pre_crash.serial, "serials must never collide");
    host.start_object(&fresh, &[spec(&tb, class)], later).unwrap();
}

mod serial_fill {
    //! The Enactor's fill pass is a pure function of the seed: two
    //! same-seed runs return the same classification in the
    //! [`ScheduleFeedback`] and the same granted tokens, and hosts — the
    //! sole admission arbiters — never over-commit capacity.

    use super::*;
    use legion::schedule::ScheduleOutcome;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// One `make_reservations` run on a fresh testbed built from `seed`.
    /// Returns what must replay: the outcome, the granted tokens as
    /// (host index, host-local serial), and the worst per-host
    /// multiplicity among the held reservations.
    fn run_once(seed: u64, picks: &[usize]) -> (ScheduleOutcome, Vec<(usize, u64)>, usize) {
        let tb = Testbed::build(TestbedConfig::wide(2, 3, seed));
        // Full-CPU demand on single-CPU workstations: every host can
        // hold exactly one of these, so duplicate picks must fail.
        let class = tb.register_class("w", 100, 128);
        tb.tick(SimDuration::from_secs(1));
        let mappings: Vec<Mapping> = picks
            .iter()
            .map(|&p| {
                let host = &tb.unix_hosts[p % tb.unix_hosts.len()];
                Mapping::new(class, host.loid(), host.get_compatible_vaults()[0])
            })
            .collect();
        let enactor = Enactor::new(tb.fabric.clone());
        let fb = enactor.make_reservations(&ScheduleRequestList::single(mappings));

        let mut per_host: HashMap<Loid, usize> = HashMap::new();
        for m in &fb.mappings {
            *per_host.entry(m.host).or_default() += 1;
        }
        let host_index = |loid: Loid| {
            tb.unix_hosts
                .iter()
                .position(|h| h.loid() == loid)
                .expect("token names a testbed host")
        };
        let tokens: Vec<(usize, u64)> =
            fb.reservations.iter().map(|tok| (host_index(tok.host), tok.serial)).collect();
        (fb.outcome, tokens, per_host.values().copied().max().unwrap_or(0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Same-seed runs replay exactly and never over-commit a host,
        /// for arbitrary (possibly colliding) host picks.
        #[test]
        fn same_seed_replays_and_never_overcommits(
            seed in 0u64..512,
            picks in proptest::collection::vec(0usize..6, 1..9),
        ) {
            let first = run_once(seed, &picks);
            prop_assert_eq!(&first, &run_once(seed, &picks), "same-seed runs diverged");
            prop_assert!(
                first.2 <= 1,
                "a single-CPU host held {} full-CPU reservations",
                first.2
            );
        }
    }
}

#[test]
fn expired_reservations_raise_events() {
    let (tb, class) = bed();
    let host = &tb.unix_hosts[0];
    let vault = host.get_compatible_vaults()[0];
    let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(60))
        .with_demand(10, 16);
    host.make_reservation(&req, tb.fabric.clock().now()).unwrap();
    // Let the confirmation timeout lapse and reassess.
    let later = tb.fabric.clock().advance(SimDuration::from_secs(45));
    let events = host.reassess(later);
    assert!(events
        .iter()
        .any(|e| e.kind == legion::core::EventKind::ReservationExpired));
}
