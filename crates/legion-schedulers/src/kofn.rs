//! "k out of n" scheduling (§3.3, future work — implemented here).
//!
//! "We will also support 'k out of n' scheduling, where the Scheduler
//! specifies an equivalence class of n resources and asks the Enactor to
//! start k instances of the same object on them."
//!
//! The equivalence class is every usable candidate the Collection
//! returns; the master schedule places the k instances on the first k
//! (least-loaded) members, and the remaining `n − k` members become
//! spares expressed as single-position variant schedules — so the
//! Enactor's bitmap walk can slide any failed instance onto a spare
//! without disturbing the others. Experiment E-X3 measures success
//! probability as a function of the spare slack `n − k`.

use crate::traits::{SchedCtx, Scheduler};
use legion_core::host::well_known;
use legion_core::{LegionError, PlacementRequest};
use legion_schedule::{Mapping, ScheduleRequest, ScheduleRequestList, VariantSchedule};

/// k-of-n placement over an equivalence class of hosts.
pub struct KOfNScheduler {
    /// Cap on the equivalence class size (`n`); `None` = all candidates.
    pub n_limit: Option<usize>,
    /// Cap on generated variants (each consumes Enactor attempts).
    pub max_variants: usize,
}

impl KOfNScheduler {
    /// A k-of-n scheduler over the whole candidate set.
    pub fn new() -> Self {
        KOfNScheduler { n_limit: None, max_variants: 16 }
    }

    /// Restricts the equivalence class to `n` members.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n_limit = Some(n);
        self
    }
}

impl Default for KOfNScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for KOfNScheduler {
    fn name(&self) -> &'static str {
        "k-of-n"
    }

    fn compute_schedule(
        &self,
        request: &PlacementRequest,
        ctx: &SchedCtx,
    ) -> Result<ScheduleRequestList, LegionError> {
        let [item] = request.items.as_slice() else {
            return Err(LegionError::MalformedSchedule(
                "k-of-n expects exactly one class (k instances of the same object)".into(),
            ));
        };
        let k = item.count as usize;
        if k == 0 {
            return Err(LegionError::MalformedSchedule("k must be positive".into()));
        }
        let report = ctx.class_report(item.class)?;
        let pool = ctx.shared_candidates_for(&report, item.constraint.as_deref())?;
        let mut candidates: Vec<_> = pool.iter().filter(|c| c.usable()).collect();
        if let Some(n) = self.n_limit {
            candidates.truncate(n);
        }
        if candidates.len() < k {
            return Err(LegionError::MalformedSchedule(format!(
                "equivalence class has {} members, need k = {k}",
                candidates.len()
            )));
        }
        // Least-loaded members take the master slots.
        candidates.sort_by(|a, b| {
            let la = a.attrs().get_f64(well_known::LOAD).unwrap_or(f64::MAX);
            let lb = b.attrs().get_f64(well_known::LOAD).unwrap_or(f64::MAX);
            la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal)
        });

        let master: Vec<Mapping> = candidates[..k]
            .iter()
            .map(|c| Mapping::new(item.class, c.host, c.vaults[0]))
            .collect();
        let spares = &candidates[k..];

        let mut sched = ScheduleRequest::master_only(master);
        // Spare j covers master position j mod k — between them the
        // spares cover every position as evenly as possible.
        for (j, spare) in spares.iter().enumerate().take(self.max_variants) {
            let pos = j % k;
            let repl = Mapping::new(item.class, spare.host, spare.vaults[0]);
            sched = sched.with_variant(VariantSchedule::replacing(k, &[(pos, repl)]));
        }
        Ok(ScheduleRequestList { schedules: vec![sched] })
    }
}
