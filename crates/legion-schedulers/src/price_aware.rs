//! A cost-minimizing scheduler — the economics the paper gestures at.
//!
//! "the Host could export information such as the amount charged per
//! CPU cycle consumed" (§3.1), and users may "optimize factors such as
//! application throughput, turnaround time, or cost" (§1). This
//! scheduler reads `host_price_per_cpu_sec` from the Collection and
//! places instances on the cheapest hosts whose load stays under a
//! ceiling — the classic budget/turnaround trade experiment E-X7
//! quantifies against the load-aware policy.

use crate::traits::{Candidate, SchedCtx, Scheduler};
use legion_core::host::well_known;
use legion_core::{LegionError, PlacementRequest};
use legion_schedule::{Mapping, ScheduleRequest, ScheduleRequestList, VariantSchedule};

/// Cheapest-first placement with a load guard.
pub struct PriceAwareScheduler {
    /// Hosts above this load are excluded no matter how cheap.
    pub max_load: f64,
    /// Variant schedules to emit (next-cheapest spares).
    pub variants: usize,
}

impl PriceAwareScheduler {
    /// A price-aware scheduler excluding hosts loaded above 2.0.
    pub fn new() -> Self {
        PriceAwareScheduler { max_load: 2.0, variants: 2 }
    }

    /// Builder: set the load ceiling.
    pub fn with_max_load(mut self, max_load: f64) -> Self {
        self.max_load = max_load;
        self
    }

    fn price_of(c: &Candidate) -> i64 {
        c.attrs().get_i64(well_known::PRICE_PER_CPU_SEC).unwrap_or(i64::MAX)
    }

    fn load_of(c: &Candidate) -> f64 {
        c.attrs().get_f64(well_known::LOAD).unwrap_or(f64::MAX)
    }

    /// Estimated spend for a placement: Σ price(host) per instance
    /// (per CPU-second; callers scale by expected runtime).
    pub fn spend_estimate(ctx: &SchedCtx, mappings: &[Mapping]) -> i64 {
        mappings
            .iter()
            .map(|m| {
                ctx.collection
                    .member_attr(m.host, well_known::PRICE_PER_CPU_SEC)
                    .and_then(|v| v.as_i64())
                    .unwrap_or(0)
            })
            .sum()
    }
}

impl Default for PriceAwareScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for PriceAwareScheduler {
    fn name(&self) -> &'static str {
        "price-aware"
    }

    fn compute_schedule(
        &self,
        request: &PlacementRequest,
        ctx: &SchedCtx,
    ) -> Result<ScheduleRequestList, LegionError> {
        if request.is_empty() {
            return Err(LegionError::MalformedSchedule("empty placement request".into()));
        }
        let mut master = Vec::new();
        let mut spares: Vec<Vec<Mapping>> = Vec::new();
        for item in &request.items {
            let report = ctx.class_report(item.class)?;
            let pool = ctx.shared_candidates_for(&report, item.constraint.as_deref())?;
            let mut candidates: Vec<_> =
                pool.iter().filter(|c| c.usable() && Self::load_of(c) <= self.max_load).collect();
            if candidates.is_empty() {
                return Err(LegionError::NoUsableImplementation { class: item.class });
            }
            // Cheapest first; ties broken by load so we don't pile onto
            // one free host.
            candidates.sort_by(|a, b| {
                Self::price_of(a).cmp(&Self::price_of(b)).then(
                    Self::load_of(a)
                        .partial_cmp(&Self::load_of(b))
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
            });
            for i in 0..item.count as usize {
                let pick = &candidates[i % candidates.len()];
                master.push(Mapping::new(item.class, pick.host, pick.vaults[0]));
                let mut alt = Vec::new();
                for j in 1..=self.variants {
                    let c = &candidates[(i + j) % candidates.len()];
                    if c.host != pick.host {
                        alt.push(Mapping::new(item.class, c.host, c.vaults[0]));
                    }
                }
                spares.push(alt);
            }
        }
        let n = master.len();
        let mut sched = ScheduleRequest::master_only(master);
        for v in 0..self.variants {
            let repl: Vec<(usize, Mapping)> =
                (0..n).filter_map(|i| spares[i].get(v).map(|m| (i, m.clone()))).collect();
            if !repl.is_empty() {
                sched = sched.with_variant(VariantSchedule::replacing(n, &repl));
            }
        }
        Ok(ScheduleRequestList { schedules: vec![sched] })
    }
}
