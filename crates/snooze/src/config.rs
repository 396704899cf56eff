//! System-wide configuration.
//!
//! Everything the paper leaves to "the system administrator" — heartbeat
//! periods, failure-detection timeouts, the idle-time threshold before
//! suspending a node, scheduling policy choices, the reconfiguration
//! interval — lives in one struct with defaults matching the described
//! deployment.

use snooze_cluster::migration::MigrationModel;
use snooze_simcore::time::SimSpan;

use crate::estimator::EstimatorKind;
use crate::scheduling::dispatching::DispatchKind;
use crate::scheduling::placement::PlacementKind;
use crate::scheduling::reconfiguration::ReconfigurationConfig;

/// Full Snooze configuration.
#[derive(Clone, Debug)]
pub struct SnoozeConfig {
    // --- heartbeat periods -------------------------------------------------
    /// GL multicast heartbeat period.
    pub gl_heartbeat_period: SimSpan,
    /// GM → GL summary heartbeat period.
    pub gm_heartbeat_period: SimSpan,
    /// GM → LC-group heartbeat period.
    pub gm_lc_heartbeat_period: SimSpan,
    /// LC monitoring/heartbeat period.
    pub lc_monitoring_period: SimSpan,

    // --- failure detection -------------------------------------------------
    /// GL declares a GM dead after this silence.
    pub gm_timeout: SimSpan,
    /// GM declares an LC dead after this silence.
    pub lc_timeout: SimSpan,
    /// LC declares its GM dead after this silence and rejoins.
    pub gm_silence_for_lc: SimSpan,
    /// Coordination-service session timeout (GL election failover time).
    pub zk_session_timeout: SimSpan,
    /// Elector session-ping period.
    pub election_ping_period: SimSpan,

    // --- scheduling --------------------------------------------------------
    /// GL dispatching policy.
    pub dispatching: DispatchKind,
    /// GM placement policy.
    pub placement: PlacementKind,
    /// Demand estimator used by GMs.
    pub estimator: EstimatorKind,
    /// LC-local overload threshold (fraction of capacity, any dimension).
    pub overload_threshold: f64,
    /// LC-local underload threshold (fraction of capacity, all dimensions).
    pub underload_threshold: f64,
    /// Periodic reconfiguration (consolidation), if enabled.
    pub reconfiguration: Option<ReconfigurationConfig>,
    /// How long a pending placement waits between retries (e.g. while a
    /// node wakes up).
    pub placement_retry_period: SimSpan,
    /// Give up on a pending placement after this many retries.
    pub placement_max_retries: u32,
    /// GL-side fuse on an *accepted* dispatch: if the accepting GM never
    /// reports the VM active within this window (lost StartVm chain, GM
    /// wedged), the GL moves to the next candidate. Must comfortably
    /// exceed a node wake-up plus a VM boot.
    pub dispatch_accept_timeout: SimSpan,

    // --- energy management --------------------------------------------------
    /// Suspend an LC after it has been idle this long. `None` disables
    /// power management entirely (the E7 baseline).
    pub idle_suspend_after: Option<SimSpan>,
    /// A suspended LC wakes itself after this long to check in (RTC
    /// watchdog). Without it, a suspended LC orphaned by its GM's death
    /// could never rejoin — no surviving component knows to wake it.
    pub suspend_watchdog: SimSpan,

    // --- VM lifecycle -------------------------------------------------------
    /// Boot delay between admission and a VM running.
    pub vm_boot_delay: SimSpan,
    /// Live-migration path model.
    pub migration: MigrationModel,
    /// Reschedule VMs lost to an LC failure from hypervisor snapshots
    /// (§II-E's optional snapshot-based recovery).
    pub reschedule_on_lc_failure: bool,
}

impl Default for SnoozeConfig {
    fn default() -> Self {
        SnoozeConfig {
            gl_heartbeat_period: SimSpan::from_secs(3),
            gm_heartbeat_period: SimSpan::from_secs(3),
            gm_lc_heartbeat_period: SimSpan::from_secs(3),
            lc_monitoring_period: SimSpan::from_secs(3),
            gm_timeout: SimSpan::from_secs(10),
            lc_timeout: SimSpan::from_secs(10),
            gm_silence_for_lc: SimSpan::from_secs(10),
            zk_session_timeout: SimSpan::from_secs(10),
            election_ping_period: SimSpan::from_secs(3),
            dispatching: DispatchKind::LeastLoaded,
            placement: PlacementKind::FirstFit,
            estimator: EstimatorKind::Ewma { alpha: 0.5 },
            overload_threshold: 0.9,
            underload_threshold: 0.2,
            reconfiguration: None,
            placement_retry_period: SimSpan::from_secs(5),
            placement_max_retries: 20,
            dispatch_accept_timeout: SimSpan::from_secs(120),
            idle_suspend_after: Some(SimSpan::from_secs(60)),
            suspend_watchdog: SimSpan::from_secs(1800),
            vm_boot_delay: SimSpan::from_secs(15),
            migration: MigrationModel::gigabit(),
            reschedule_on_lc_failure: false,
        }
    }
}

impl SnoozeConfig {
    /// Tighter timers for unit tests (faster convergence, same logic).
    pub fn fast_test() -> Self {
        SnoozeConfig {
            gl_heartbeat_period: SimSpan::from_millis(500),
            gm_heartbeat_period: SimSpan::from_millis(500),
            gm_lc_heartbeat_period: SimSpan::from_millis(500),
            lc_monitoring_period: SimSpan::from_millis(500),
            gm_timeout: SimSpan::from_secs(2),
            lc_timeout: SimSpan::from_secs(2),
            gm_silence_for_lc: SimSpan::from_secs(2),
            zk_session_timeout: SimSpan::from_secs(2),
            election_ping_period: SimSpan::from_millis(500),
            placement_retry_period: SimSpan::from_secs(1),
            vm_boot_delay: SimSpan::from_secs(1),
            // Wake (25 s) + boot (1 s) + retry slack.
            dispatch_accept_timeout: SimSpan::from_secs(45),
            suspend_watchdog: SimSpan::from_secs(300),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SnoozeConfig::default();
        assert!(c.gm_timeout > c.gm_heartbeat_period * 2);
        assert!(c.lc_timeout > c.lc_monitoring_period * 2);
        assert!(c.overload_threshold > c.underload_threshold);
        assert!(c.idle_suspend_after.is_some());
    }

    #[test]
    fn fast_test_keeps_timeout_margins() {
        let c = SnoozeConfig::fast_test();
        assert!(c.gm_timeout > c.gm_heartbeat_period * 2);
        assert!(c.lc_timeout > c.lc_monitoring_period * 2);
    }
}
