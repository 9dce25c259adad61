//! Workload definitions, seeded arrival streams and the testbed each
//! replay starts from.

use legion::apps::{LoadRegime, Testbed, TestbedConfig};
use legion::core::{ClassObject, Loid, PlacementRequest, SimDuration, SimTime};
use legion::ingress::{ClassPolicy, FrontDoor, IngressConfig, PriorityClass, TenantId};
use legion::schedule::Enactor;
use legion::schedulers::{IrsScheduler, Scheduler};
use std::sync::Arc;

/// IRS `NSched`: mappings drawn per instance (master + 3 variants).
const IRS_NSCHED: usize = 4;
/// Tenants, registered round-robin over the three priority classes.
const TENANTS: usize = 6;

/// One workload: the testbed shape, the traffic, and how the client
/// drives it. Every field is fixed per workload; only the seed varies.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub domains: usize,
    pub hosts_per_domain: usize,
    pub load: LoadRegime,
    /// Long-lived filler reservations per host (production-sized tables).
    pub preload_per_host: usize,
    /// Per-instance demand of the one worker class.
    pub cpu_centis: u32,
    pub memory_mb: u32,
    /// Instances per placement request.
    pub instances: u32,
    /// Offered load over all tenants, in Poisson arrivals per virtual second.
    pub arrivals_per_sec: f64,
    /// How long a placed request keeps its instances.
    pub dwell: SimDuration,
    /// Virtual time between inline `reassess_all` + `pull_once` passes.
    pub refresh: SimDuration,
    /// Delta-log capacity, or `None` to leave the log off.
    pub deltas: Option<usize>,
    /// Submissions per client call: 1 uses `submit`, more `submit_many`.
    pub batch: usize,
    /// Fair-use policy, per priority class.
    pub policies: [ClassPolicy; 3],
    /// Virtual length of one replay.
    pub horizon: SimDuration,
}

/// Admission never binds: rate and burst far above the offered load.
const GENEROUS: ClassPolicy =
    ClassPolicy { rate_per_sec: 1000.0, burst: 1000, queue_capacity: 1000 };

pub const WORKLOADS: [&str; 3] = ["wide_steady", "coalloc_contended", "overload_batched"];

pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        "wide_steady" => Spec {
            name: "wide_steady",
            domains: 8,
            hosts_per_domain: 128,
            load: LoadRegime::Idle,
            preload_per_host: 0,
            cpu_centis: 20,
            memory_mb: 48,
            instances: 1,
            arrivals_per_sec: 10.0,
            dwell: SimDuration::from_secs(60),
            refresh: SimDuration::from_secs(30),
            deltas: Some(8192),
            batch: 1,
            policies: [GENEROUS; 3],
            horizon: SimDuration::from_secs(300),
        },
        "coalloc_contended" => Spec {
            name: "coalloc_contended",
            domains: 8,
            hosts_per_domain: 8,
            load: LoadRegime::Ar1 { mean: 0.5 },
            preload_per_host: 256,
            cpu_centis: 20,
            memory_mb: 64,
            instances: 8,
            arrivals_per_sec: 0.25,
            dwell: SimDuration::from_secs(60),
            refresh: SimDuration::from_secs(5),
            deltas: None,
            batch: 1,
            policies: [GENEROUS; 3],
            horizon: SimDuration::from_secs(2016),
        },
        "overload_batched" => Spec {
            name: "overload_batched",
            domains: 8,
            hosts_per_domain: 8,
            load: LoadRegime::Idle,
            preload_per_host: 0,
            cpu_centis: 5,
            memory_mb: 16,
            instances: 1,
            // About 8x the summed fair-use allotment of the six tenants
            // (2 x (2 + 1 + 0.25) = 6.5 admissions per virtual second).
            arrivals_per_sec: 52.0,
            dwell: SimDuration::from_secs(60),
            refresh: SimDuration::from_secs(60),
            deltas: None,
            batch: 16,
            policies: IngressConfig::default().policies,
            horizon: SimDuration::from_secs(1600),
        },
        _ => return None,
    };
    Some(spec)
}

/// One submission the client will make: when, and for which tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub at: SimTime,
    pub tenant: usize,
}

/// SplitMix64: a small, seedable generator for the arrival streams, so
/// the inputs depend on the seed alone and not on any crate's RNG.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Draws every tenant's arrivals over the spec's horizon, each tenant
/// from its own seeded stream, and merges them in time order.
///
/// Each tenant's stream is a Poisson process conditioned on its count:
/// `rate x horizon / tenants` arrival times drawn uniformly over the
/// horizon. Every seed therefore offers the same number of submissions
/// (and the same number per tenant), and seeds differ only in when they
/// arrive.
pub fn draw_arrivals(spec: &Spec, seed: u64) -> Vec<Arrival> {
    let horizon = spec.horizon.as_micros();
    let per_tenant =
        (spec.arrivals_per_sec * spec.horizon.as_micros() as f64 / 1e6 / TENANTS as f64).round()
            as usize;
    let mut all = Vec::with_capacity(per_tenant * TENANTS);
    for tenant in 0..TENANTS {
        let mut rng = SplitMix(seed ^ (tenant as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        for _ in 0..per_tenant {
            let at = (rng.unit() * horizon as f64) as u64;
            all.push(Arrival { at: SimTime::from_micros(at), tenant });
        }
    }
    all.sort_by_key(|a| (a.at, a.tenant));
    all
}

/// A freshly built deployment: testbed, front door and the handles the
/// client needs to drive the placement path through public calls.
pub struct Bed {
    pub tb: Testbed,
    pub door: FrontDoor,
    pub scheduler: Arc<dyn Scheduler>,
    pub enactor: Arc<Enactor>,
    pub class: Arc<dyn ClassObject>,
    pub tenants: Vec<TenantId>,
    pub request: PlacementRequest,
}

impl Bed {
    /// Builds the testbed, preloads reservation tables, registers the
    /// tenants and fills the candidate cache once. Everything here is
    /// set-up: none of it is inside a timed region.
    pub fn build(spec: &Spec, seed: u64) -> Bed {
        let tb = Testbed::build(TestbedConfig {
            load: spec.load,
            ..TestbedConfig::wide(spec.domains, spec.hosts_per_domain, seed)
        });
        let class_loid: Loid = tb.register_class("bench-worker", spec.cpu_centis, spec.memory_mb);
        if spec.preload_per_host > 0 {
            let made = tb.preload_reservations(spec.preload_per_host, class_loid);
            assert_eq!(made, spec.preload_per_host * tb.host_count(), "preload fully admitted");
        }
        if let Some(capacity) = spec.deltas {
            tb.collection.enable_deltas(capacity);
        }
        // Per-position variants: with Fig. 8's joint variants some seeds of
        // `coalloc_contended` fail placements (README, Findings).
        let scheduler: Arc<dyn Scheduler> =
            Arc::new(IrsScheduler::new(seed ^ 0x1125, IRS_NSCHED).per_position());
        // Default Enactor: fan-out 1, so the closed loop runs on one thread.
        let enactor = Arc::new(Enactor::new(Arc::clone(&tb.fabric)));
        let door = FrontDoor::new(
            tb.ctx(),
            Arc::clone(&scheduler),
            Arc::clone(&enactor),
            tb.vault_loids[0],
            IngressConfig { policies: spec.policies, ..IngressConfig::default() },
        );
        let tenants = (0..TENANTS)
            .map(|i| {
                let class = PriorityClass::ALL[i % PriorityClass::COUNT];
                door.register_tenant(format!("{}-{i}", class.as_str()), class)
            })
            .collect();
        let class = tb.fabric.lookup_class(class_loid).expect("class registered");
        // Warm-up: the first cache fill for the one query every placement
        // issues, so the timed replay starts from a warm candidate cache.
        let report = door.ctx().class_report(class_loid).expect("class report");
        let warm = door.ctx().shared_candidates_for(&report, None).expect("warm-up query");
        assert_eq!(warm.len(), tb.host_count(), "every host is a candidate");
        Bed {
            tb,
            door,
            scheduler,
            enactor,
            class,
            tenants,
            request: PlacementRequest::new().class(class_loid, spec.instances),
        }
    }
}

impl Drop for Bed {
    /// Hosts and the fabric hold each other (`StandardHost` keeps the
    /// fabric as its vault directory), so a dropped bed would never be
    /// freed. Unregistering the hosts breaks the cycle; without it every
    /// replay leaks its testbed, and memory and timings drift with the
    /// number of replays a run makes.
    fn drop(&mut self) {
        for &host in &self.tb.host_loids {
            self.tb.fabric.unregister_host(host);
        }
    }
}
