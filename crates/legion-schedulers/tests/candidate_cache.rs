//! The epoch-validated candidate cache: delta-edge behaviour (touch-only
//! churn, log gaps, deltas never enabled, oversized batches) and the
//! bit-identical cached/patched/uncached equivalence property under
//! arbitrary mutation interleavings and shard counts.

use legion_collection::{Collection, MemberCredential};
use legion_core::host::well_known;
use legion_core::{
    AttrValue, AttributeDb, ClassReport, Loid, LoidKind, ObjectImplementation, SimDuration,
    SimTime,
};
use legion_fabric::{DomainTopology, Fabric};
use legion_schedulers::{Candidate, SchedCtx};
use proptest::prelude::*;
use std::sync::Arc;

/// Constraint used by every serve: memory values are multiples of 128,
/// so upserts can flip records across the predicate boundary.
const MEM_CONSTRAINT: &str = "$host_memory_mb >= 256";

fn vault_loid() -> Loid {
    Loid::synthetic(LoidKind::Vault, 1)
}

fn member_loid(i: usize) -> Loid {
    Loid::synthetic(LoidKind::Host, 100 + i as u64)
}

fn host_attrs(memory_mb: i64) -> AttributeDb {
    AttributeDb::new()
        .with(well_known::ARCH, "mips")
        .with(well_known::OS_NAME, "IRIX")
        .with(well_known::MEMORY_MB, memory_mb)
        .with(
            well_known::COMPATIBLE_VAULTS,
            AttrValue::List(vec![AttrValue::Str(vault_loid().to_string())]),
        )
}

/// Initial memory for member `i`: 128, 256, 384 or 512 MB — half the
/// bed starts inside the `>= 256` predicate, half outside.
fn initial_memory(i: usize) -> i64 {
    128 + (i as i64 % 4) * 128
}

fn report() -> ClassReport {
    ClassReport {
        class: Loid::synthetic(LoidKind::Class, 1),
        name: "w".to_string(),
        implementations: vec![ObjectImplementation::new("mips", "IRIX")],
        memory_mb: 64,
        cpu_centis: 25,
        comm_bytes_per_cycle: 0,
    }
}

struct Bed {
    collection: Arc<Collection>,
    /// Cache-enabled context (the default).
    cached: SchedCtx,
    /// Cache-disabled context over the same Collection — the ground
    /// truth every cached serve must match bit for bit.
    uncached: SchedCtx,
    creds: Vec<MemberCredential>,
    fabric: Arc<Fabric>,
}

fn bed(shards: usize, members: usize, delta_capacity: Option<usize>) -> Bed {
    let fabric = Fabric::new(
        DomainTopology::uniform(1, SimDuration::from_micros(10), SimDuration::from_millis(1)),
        7,
    );
    let collection = Collection::with_shards(fabric.mint(LoidKind::Service), 0xCACE, shards);
    collection.set_metrics(Arc::clone(fabric.metrics()));
    if let Some(cap) = delta_capacity {
        collection.enable_deltas(cap);
    }
    let creds: Vec<MemberCredential> = (0..members)
        .map(|i| {
            collection.join_with(member_loid(i), host_attrs(initial_memory(i)), SimTime::ZERO)
        })
        .collect();
    let cached = SchedCtx::new(Arc::clone(&fabric), Arc::clone(&collection));
    let uncached = SchedCtx::new(Arc::clone(&fabric), Arc::clone(&collection));
    uncached.set_candidate_cache_enabled(false);
    Bed { collection, cached, uncached, creds, fabric }
}

fn serve(ctx: &SchedCtx) -> Arc<Vec<Candidate>> {
    ctx.shared_candidates_for(&report(), Some(MEM_CONSTRAINT)).expect("query compiles")
}

/// Asserts the cached context serves exactly what a full uncached query
/// computes — same members, same attribute snapshots, same vault lists,
/// same order.
fn assert_serves_match(bed: &Bed) {
    let cached = serve(&bed.cached);
    let uncached = serve(&bed.uncached);
    assert_eq!(*cached, *uncached, "cached serve diverged from ground-truth query");
}

#[test]
fn repeat_serves_hit_and_share_the_set() {
    let bed = bed(4, 32, Some(1024));
    let first = serve(&bed.cached);
    let second = serve(&bed.cached);
    assert!(Arc::ptr_eq(&first, &second), "unchanged epoch must serve the same Arc");
    let stats = bed.cached.candidate_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.patched), (1, 1, 0));
    assert_serves_match(&bed);
}

#[test]
fn touch_only_churn_patches_without_reevaluation() {
    let bed = bed(4, 48, Some(4096));
    serve(&bed.cached); // prime: one full compute
    let t = SimTime::from_secs(5);
    for cred in &bed.creds {
        bed.collection.touch(cred, t).unwrap();
    }

    let before = bed.fabric.metrics().snapshot();
    let set = serve(&bed.cached);
    let delta = bed.fabric.metrics().snapshot().delta(&before);

    let stats = bed.cached.candidate_cache_stats();
    assert_eq!(stats.patched, 1, "touch-only churn must patch, not recompute");
    assert_eq!(stats.misses, 1, "only the priming serve computed");
    // A touch never re-evaluates the predicate: the ledger's scan
    // counter must not move, while the serve still accounts as a query.
    assert_eq!(delta.collection_records_scanned, 0, "no records re-evaluated");
    assert_eq!(delta.collection_queries, 1, "the patched serve is one query");
    // The freshness bump is visible through the patched set.
    assert!(set.iter().all(|c| c.record.updated_at == t), "touch must move updated_at");
    assert_serves_match(&bed);
}

#[test]
fn upsert_churn_tracks_predicate_flips() {
    let bed = bed(4, 32, Some(4096));
    let primed = serve(&bed.cached);
    // Member 1 starts at 256 MB (inside); drop it below the predicate.
    assert!(primed.iter().any(|c| c.host == member_loid(1)));
    let t = SimTime::from_secs(3);
    bed.collection.replace(&bed.creds[1], host_attrs(64), t).unwrap();
    // Member 0 starts at 128 MB (outside); raise it above.
    assert!(!primed.iter().any(|c| c.host == member_loid(0)));
    bed.collection.replace(&bed.creds[0], host_attrs(1024), t).unwrap();
    // Member 2 leaves outright.
    bed.collection.leave(&bed.creds[2]).unwrap();

    let set = serve(&bed.cached);
    let stats = bed.cached.candidate_cache_stats();
    assert_eq!(stats.patched, 1, "three logged ops patch in one serve");
    assert!(!set.iter().any(|c| c.host == member_loid(1)), "downgraded member left the set");
    assert!(set.iter().any(|c| c.host == member_loid(0)), "upgraded member entered the set");
    assert!(!set.iter().any(|c| c.host == member_loid(2)), "departed member left the set");
    assert_serves_match(&bed);
}

#[test]
fn log_gap_forces_full_recompute() {
    // Capacity 8: churning 24 members overflows the bounded log, so the
    // cache's anchor falls off the front and `deltas_since` reports a
    // gap — the patch path must give up and recompute (the same rule
    // the push federation applies on gap→resync).
    let bed = bed(4, 24, Some(8));
    serve(&bed.cached);
    let t = SimTime::from_secs(9);
    for cred in &bed.creds {
        bed.collection.touch(cred, t).unwrap();
    }
    serve(&bed.cached);
    let stats = bed.cached.candidate_cache_stats();
    assert_eq!(stats.gap_resyncs, 1, "overflowed log must be detected as a gap");
    assert_eq!(stats.misses, 2, "gap serve recomputes in full");
    assert_eq!(stats.patched, 0);
    assert_serves_match(&bed);
}

#[test]
fn correct_when_deltas_were_never_enabled() {
    // No delta log at all: every epoch advance is a full recompute and
    // results stay exact — the cache degrades, never lies.
    let bed = bed(4, 16, None);
    serve(&bed.cached);
    bed.collection.touch(&bed.creds[3], SimTime::from_secs(2)).unwrap();
    serve(&bed.cached);
    let stats = bed.cached.candidate_cache_stats();
    assert_eq!(stats.misses, 2, "no deltas: epoch advance means recompute");
    assert_eq!((stats.patched, stats.hits, stats.gap_resyncs), (0, 0, 0));
    // A quiet epoch still hits.
    serve(&bed.cached);
    assert_eq!(bed.cached.candidate_cache_stats().hits, 1);
    assert_serves_match(&bed);
}

#[test]
fn oversized_batches_recompute_instead_of_patching() {
    // 80 ops against a 100-record collection exceeds the patch budget
    // (max(len/4, 64) = 64), so the serve recomputes through the index.
    let bed = bed(2, 100, Some(4096));
    serve(&bed.cached);
    for cred in bed.creds.iter().take(80) {
        bed.collection.touch(cred, SimTime::from_secs(4)).unwrap();
    }
    serve(&bed.cached);
    let stats = bed.cached.candidate_cache_stats();
    assert_eq!(stats.misses, 2, "oversized batch must recompute");
    assert_eq!(stats.patched, 0);
    // Small follow-up churn patches again.
    bed.collection.touch(&bed.creds[0], SimTime::from_secs(6)).unwrap();
    serve(&bed.cached);
    assert_eq!(bed.cached.candidate_cache_stats().patched, 1);
    assert_serves_match(&bed);
}

#[test]
fn disabling_the_cache_drops_state_and_serves_plain_queries() {
    let bed = bed(4, 16, Some(1024));
    serve(&bed.cached);
    serve(&bed.cached);
    assert_eq!(bed.cached.candidate_cache_stats().hits, 1);
    bed.cached.set_candidate_cache_enabled(false);
    let a = serve(&bed.cached);
    let b = serve(&bed.cached);
    assert!(!Arc::ptr_eq(&a, &b), "disabled cache computes fresh sets");
    let stats = bed.cached.candidate_cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1), "disabled serves are unaccounted plain queries");
    assert_serves_match(&bed);
}

/// One mutation step of the interleaving property below.
#[derive(Debug, Clone)]
enum Step {
    Touch(usize),
    Upsert(usize, i64),
    Leave(usize),
    Rejoin(usize, i64),
    Serve,
}

fn step_strategy(members: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..members).prop_map(Step::Touch),
        (0..members, 0i64..1024).prop_map(|(i, m)| Step::Upsert(i, m)),
        (0..members).prop_map(Step::Leave),
        (0..members, 0i64..1024).prop_map(|(i, m)| Step::Rejoin(i, m)),
        Just(Step::Serve),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline correctness property: under any interleaving of
    /// upserts, touches, leaves and rejoins — across shard counts and
    /// delta-log capacities (including none, forcing recomputes, and
    /// tiny, forcing gaps) — a cached serve is bit-identical to a full
    /// uncached query at every observation point.
    #[test]
    fn cached_serves_are_bit_identical_to_uncached(
        shards in (0usize..3).prop_map(|i| [1usize, 2, 8][i]),
        capacity in (0usize..3).prop_map(|i| [None, Some(4usize), Some(4096)][i]),
        steps in proptest::collection::vec(step_strategy(12), 1..40),
    ) {
        let mut bed = bed(shards, 12, capacity);
        assert_serves_match(&bed);
        let mut now = 1u64;
        for step in steps {
            now += 1;
            let t = SimTime::from_secs(now);
            match step {
                Step::Touch(i) => { let _ = bed.collection.touch(&bed.creds[i], t); }
                Step::Upsert(i, m) => {
                    let _ = bed.collection.replace(&bed.creds[i], host_attrs(m), t);
                }
                Step::Leave(i) => { let _ = bed.collection.leave(&bed.creds[i]); }
                Step::Rejoin(i, m) => {
                    bed.creds[i] = bed.collection.join_with(member_loid(i), host_attrs(m), t);
                }
                Step::Serve => assert_serves_match(&bed),
            }
        }
        assert_serves_match(&bed);
    }
}
