//! Two-level scheduling (paper §II-C).
//!
//! "Scheduling decisions are taken at two levels: GL and GM." The GL's
//! [`dispatching`] orders GMs by their resource summaries into a
//! candidate list (summaries are not exact, so the GL linear-searches the
//! candidates). Each GM runs four policy types: [`placement`] for
//! incoming VMs, [`relocation`] for overload/underload anomalies, and
//! [`reconfiguration`] for the periodic consolidation pass.
//!
//! Policies are pure functions over snapshot views so they can be tested
//! without the full simulation.

pub mod dispatching;
pub mod placement;
pub mod reconfiguration;
pub mod relocation;

use snooze_cluster::resources::ResourceVector;
use snooze_simcore::engine::ComponentId;

/// The GL's view of one GM (from its summary heartbeats).
#[derive(Clone, Copy, Debug)]
pub struct GmSummaryView {
    /// The GM.
    pub gm: ComponentId,
    /// Estimated used capacity across its LCs.
    pub used: ResourceVector,
    /// Total capacity across its LCs.
    pub total: ResourceVector,
    /// Reserved capacity across its LCs.
    pub reserved: ResourceVector,
    /// LCs managed.
    pub n_lcs: usize,
    /// VMs managed.
    pub n_vms: usize,
}

impl GmSummaryView {
    /// Capacity not yet reserved.
    pub fn free(&self) -> ResourceVector {
        self.total.saturating_sub(&self.reserved)
    }
}

/// The GM's view of one LC (from monitoring reports + its own
/// bookkeeping).
#[derive(Clone, Debug)]
pub struct LcView {
    /// The LC.
    pub lc: ComponentId,
    /// Node capacity.
    pub capacity: ResourceVector,
    /// Reserved by resident VMs.
    pub reserved: ResourceVector,
    /// Estimated actual usage.
    pub used_estimate: ResourceVector,
    /// Powered on and able to take VMs.
    pub powered_on: bool,
    /// A wake command is in flight.
    pub waking: bool,
    /// Resident VM count.
    pub n_vms: usize,
}

impl LcView {
    /// Reservation slack.
    pub fn free(&self) -> ResourceVector {
        self.capacity.saturating_sub(&self.reserved)
    }

    /// Whether `demand` can be reserved here right now.
    pub fn can_reserve(&self, demand: &ResourceVector) -> bool {
        self.powered_on && (self.reserved + *demand).fits_within(&self.capacity)
    }

    /// Mean estimated utilization across dimensions with capacity.
    pub fn utilization(&self) -> f64 {
        let u = self.used_estimate.normalize_by(&self.capacity);
        let mut acc = 0.0;
        let mut dims = 0u32;
        for d in 0..snooze_cluster::resources::DIMS {
            if self.capacity.get(d) > 0.0 {
                acc += u.get(d);
                dims += 1;
            }
        }
        if dims == 0 {
            0.0
        } else {
            acc / dims as f64
        }
    }
}
