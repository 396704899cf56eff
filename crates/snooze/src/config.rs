//! System-wide configuration.
//!
//! Everything the paper leaves to "the system administrator" — the
//! heartbeat period and failure timeout of §II-D/E, the idle-time
//! threshold before suspending a node, scheduling policy choices, the
//! reconfiguration interval — lives in one struct with defaults matching
//! the described deployment. A setting that no scenario varies is a
//! constant beside its one reader instead.

use snooze_simcore::time::SimSpan;

use crate::estimator::EstimatorKind;
use crate::scheduling::placement::PlacementKind;
use crate::scheduling::reconfiguration::ReconfigurationConfig;

/// Full Snooze configuration.
#[derive(Clone, Debug)]
pub struct SnoozeConfig {
    // --- heartbeats and failure detection ----------------------------------
    /// Period of every heartbeat: the GL's multicast, the GM's summary to
    /// the GL and its multicast to its LCs, and the LC's monitoring report.
    pub heartbeat_period: SimSpan,
    /// Silence after which a peer is presumed dead: the GL's verdict on a
    /// GM, a GM's on an LC, and an LC's on its GM (it then rejoins).
    pub silence_timeout: SimSpan,
    /// Coordination-service session timeout (GL election failover time).
    pub zk_session_timeout: SimSpan,
    /// Elector session-ping period.
    pub election_ping_period: SimSpan,

    // --- scheduling --------------------------------------------------------
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
    /// Reschedule VMs lost to an LC failure from hypervisor snapshots
    /// (§II-E's optional snapshot-based recovery).
    pub reschedule_on_lc_failure: bool,
}

impl Default for SnoozeConfig {
    fn default() -> Self {
        SnoozeConfig {
            heartbeat_period: SimSpan::from_secs(3),
            silence_timeout: SimSpan::from_secs(10),
            zk_session_timeout: SimSpan::from_secs(10),
            election_ping_period: SimSpan::from_secs(3),
            placement: PlacementKind::FirstFit,
            estimator: EstimatorKind::Ewma { alpha: 0.5 },
            overload_threshold: 0.9,
            underload_threshold: 0.2,
            reconfiguration: None,
            placement_retry_period: SimSpan::from_secs(5),
            dispatch_accept_timeout: SimSpan::from_secs(120),
            idle_suspend_after: Some(SimSpan::from_secs(60)),
            suspend_watchdog: SimSpan::from_secs(1800),
            vm_boot_delay: SimSpan::from_secs(15),
            reschedule_on_lc_failure: false,
        }
    }
}

impl SnoozeConfig {
    /// Tighter timers for unit tests (faster convergence, same logic).
    pub fn fast_test() -> Self {
        SnoozeConfig {
            heartbeat_period: SimSpan::from_millis(500),
            silence_timeout: SimSpan::from_secs(2),
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
        assert!(c.silence_timeout > c.heartbeat_period * 2);
        assert!(c.overload_threshold > c.underload_threshold);
        assert!(c.idle_suspend_after.is_some());
    }

    #[test]
    fn fast_test_keeps_timeout_margins() {
        let c = SnoozeConfig::fast_test();
        assert!(c.silence_timeout > c.heartbeat_period * 2);
    }
}
