//! A load-aware scheduler, optionally forecast-driven.
//!
//! The paper's hosts export "a rich set of information, well beyond the
//! minimal 'architecture, OS, and load average'" (§3.1); this scheduler
//! is the canonical consumer: it sorts candidates by observed load and
//! spreads instances to the least-loaded hosts. With `use_forecast` it
//! prefers the injected `host_load_forecast` attribute (the NWS-style
//! function-injection extension of §3.2) over the instantaneous load —
//! experiment E-X4 measures the difference.

use crate::traits::{SchedCtx, Scheduler};
use legion_core::host::well_known;
use legion_core::{LegionError, PlacementRequest};
use legion_schedule::{Mapping, ScheduleRequest, ScheduleRequestList, VariantSchedule};

/// Least-loaded-first placement.
pub struct LoadAwareScheduler {
    /// Prefer `host_load_forecast` (injected) over `host_load`.
    pub use_forecast: bool,
    /// Number of variant schedules to emit (next-best hosts as spares).
    pub variants: usize,
}

impl LoadAwareScheduler {
    /// A load-aware scheduler on instantaneous load.
    pub fn new() -> Self {
        LoadAwareScheduler { use_forecast: false, variants: 2 }
    }

    /// A load-aware scheduler preferring injected forecasts.
    pub fn forecasting() -> Self {
        LoadAwareScheduler { use_forecast: true, ..Self::new() }
    }

    fn load_of(&self, c: &crate::traits::Candidate) -> f64 {
        if self.use_forecast {
            if let Some(f) = c.attrs().get_f64("host_load_forecast") {
                return f;
            }
        }
        c.attrs().get_f64(well_known::LOAD).unwrap_or(f64::MAX)
    }
}

impl Default for LoadAwareScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for LoadAwareScheduler {
    fn name(&self) -> &'static str {
        if self.use_forecast {
            "load-aware-forecast"
        } else {
            "load-aware"
        }
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
        // Per-position spare lists for variants.
        let mut spares: Vec<Vec<Mapping>> = Vec::new();

        for item in &request.items {
            let report = ctx.class_report(item.class)?;
            let pool = ctx.shared_candidates_for(&report, item.constraint.as_deref())?;
            let mut candidates: Vec<_> = pool.iter().filter(|c| c.usable()).collect();
            if candidates.is_empty() {
                return Err(LegionError::NoUsableImplementation { class: item.class });
            }
            candidates.sort_by(|a, b| {
                self.load_of(a).partial_cmp(&self.load_of(b)).unwrap_or(std::cmp::Ordering::Equal)
            });
            // Spread the k instances over the k least-loaded hosts
            // (wrapping if k exceeds the candidate pool).
            for i in 0..item.count as usize {
                let pick = &candidates[i % candidates.len()];
                master.push(Mapping::new(item.class, pick.host, pick.vaults[0]));
                // Next-best hosts become spares for this position.
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
        // Variant v swaps each position to its v-th spare (if any).
        for v in 0..self.variants {
            let replacements: Vec<(usize, Mapping)> = (0..n)
                .filter_map(|i| spares[i].get(v).map(|m| (i, m.clone())))
                .collect();
            if !replacements.is_empty() {
                sched = sched.with_variant(VariantSchedule::replacing(n, &replacements));
            }
        }
        Ok(ScheduleRequestList { schedules: vec![sched] })
    }
}
