//! The management-plane message protocol.
//!
//! In the original system these are Java RESTful web-service calls
//! (§II-A); here they are typed payloads on the simulated network. One
//! module holds every message so the protocol is readable in one place,
//! and [`SnoozeMsg`] closes them into the single enum the engine carries:
//! each struct below is a variant, coordination traffic rides in the
//! [`SnoozeMsg::Protocol`] variant, and every component handler is an
//! exhaustive `match` — no runtime casts.
//!
//! **What a variant weighs.** The engine moves a `SnoozeMsg` by value
//! through every queue push, sort and pop, so the *largest* variant sets
//! the cost of *every* event — and nine events in ten are a heartbeat
//! carrying one `ComponentId`. The `snooze_msg!` invocation at the bottom
//! therefore has two lists: `inline` variants hold their struct directly
//! and must fit 32 bytes (one `ResourceVector`); `boxed`
//! variants — the rare, fat ones: VM specs with their workloads,
//! monitoring reports, coordination traffic — ride as `Box<T>`, one
//! allocation on a path that already allocates. That keeps
//! `size_of::<SnoozeMsg>()` at 40 bytes (it was 184, set by `SubmitVm`);
//! `tests/engine_pin.rs` pins the total and a test generated by the macro
//! names the inline struct that outgrew its slot. Send sites do not see
//! the difference (`From<T>` boxes); a receiving `match` arm binds a
//! `Box<T>` and reads fields through it, and a forwarder hands the box on
//! (`From<Box<T>>`) instead of unboxing and reboxing.
//!
//! To add a message: define its struct here, list it in the
//! `snooze_msg!` invocation at the bottom — under `boxed` if it is larger
//! than 32 bytes — and handle the new variant in the receiving
//! component's `on_message` (the compiler will not remind you — unhandled
//! variants fall into the `_ => {}` drop arm, exactly like an unknown REST
//! endpoint — so add a test that exercises it).

use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::VmWorkload;
use snooze_protocols::coordination::{ProtocolCarrier, ProtocolMsg};
use snooze_simcore::engine::{ComponentId, GroupId};
use snooze_simcore::mc::{McHasher, McState};
use snooze_simcore::time::SimTime;

// ---------------------------------------------------------------------------
// Client ↔ Entry Point ↔ Group Leader
// ---------------------------------------------------------------------------

/// Client → EP: ask who the current Group Leader is.
#[derive(Clone, Copy, Debug)]
pub struct DiscoverGl;

/// EP → client: the current Group Leader, if known.
#[derive(Clone, Copy, Debug)]
pub struct GlInfo {
    /// The GL's component id, if the EP has heard a GL heartbeat.
    pub gl: Option<ComponentId>,
}

/// Client → EP (forwarded to GL): start this VM somewhere.
#[derive(Clone, Debug)]
pub struct SubmitVm {
    /// What to run.
    pub spec: VmSpec,
    /// Its demand generator (shipped with the image in the real system).
    pub workload: VmWorkload,
    /// Who to notify of the outcome.
    pub client: ComponentId,
}

/// GL → client: the VM was placed.
#[derive(Clone, Copy, Debug)]
pub struct VmPlaced {
    /// The placed VM.
    pub vm: VmId,
    /// The Group Manager responsible for it.
    pub gm: ComponentId,
    /// The Local Controller hosting it.
    pub lc: ComponentId,
}

/// GL → client: no Group Manager could place the VM.
#[derive(Clone, Copy, Debug)]
pub struct VmRejected {
    /// The rejected VM.
    pub vm: VmId,
}

/// Client → LC: destroy a VM it hosts. An LC that no longer hosts the
/// VM (it migrated away) forwards the request to its GM, which routes it
/// to the current host — relocation and reconfiguration never move VMs
/// across GM boundaries, so the GM always knows.
#[derive(Clone, Copy, Debug)]
pub struct DestroyVm {
    /// The VM to destroy.
    pub vm: VmId,
}

/// Anyone → GL: export the current hierarchy organization — the data
/// behind the original CLI's "live visualizing and exporting of the
/// hierarchy organization" (§II-A).
#[derive(Clone, Copy, Debug)]
pub struct HierarchyQuery;

/// GL → requester: the hierarchy snapshot.
#[derive(Clone, Debug)]
pub struct HierarchySnapshot {
    /// The GL answering.
    pub gl: ComponentId,
    /// Every known GM with its latest summary.
    pub gms: Vec<(ComponentId, GmHeartbeat)>,
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

/// GL → `gl` multicast group: "I am the leader". EPs use it for
/// discovery, unassigned LCs use it to find someone to join, GMs use it
/// to learn the new GL after failover.
#[derive(Clone, Copy, Debug)]
pub struct GlHeartbeat {
    /// The sender (the current GL).
    pub gl: ComponentId,
}

/// GM → GL: periodic aliveness plus the aggregated resource summary the
/// GL's dispatching runs on (§II-B: "each GM periodically sends
/// aggregated resource monitoring information to the GL").
#[derive(Clone, Copy, Debug)]
pub struct GmHeartbeat {
    /// Estimated used capacity across the GM's LCs.
    pub used: ResourceVector,
    /// Total capacity across the GM's LCs (powered-on or wakeable).
    pub total: ResourceVector,
    /// Reserved capacity across the GM's LCs.
    pub reserved: ResourceVector,
    /// Number of LCs managed.
    pub n_lcs: usize,
    /// Number of VMs managed.
    pub n_vms: usize,
}

/// GM → its LC multicast group: "your GM is alive".
#[derive(Clone, Copy, Debug)]
pub struct GmLcHeartbeat {
    /// The sending GM.
    pub gm: ComponentId,
}

// ---------------------------------------------------------------------------
// Hierarchy self-organization
// ---------------------------------------------------------------------------

/// GM → GL: join the hierarchy as a manager.
#[derive(Clone, Copy, Debug)]
pub struct GmJoin;

/// LC → GL: I need a GM assigned (sent after hearing a GL heartbeat).
#[derive(Clone, Copy, Debug)]
pub struct LcAssignRequest {
    /// The LC's total capacity (lets the GL use capacity-aware policies).
    pub capacity: ResourceVector,
}

/// GL → LC: join this GM.
#[derive(Clone, Copy, Debug)]
pub struct LcAssignment {
    /// The GM to join.
    pub gm: ComponentId,
}

/// LC → GM: join your group. (The acknowledgment,
/// [`LcJoinAckWithGroup`], carries the GM's heartbeat multicast group.)
#[derive(Clone, Copy, Debug)]
pub struct LcJoin {
    /// The LC's total capacity.
    pub capacity: ResourceVector,
}

/// GM → LC: join acknowledgement carrying the GM's heartbeat multicast
/// group.
#[derive(Clone, Copy, Debug)]
pub struct LcJoinAckWithGroup {
    /// The GM's LC-heartbeat multicast group.
    pub group: GroupId,
}

// ---------------------------------------------------------------------------
// Monitoring (doubles as the LC heartbeat)
// ---------------------------------------------------------------------------

/// Usage snapshot of one VM, as observed by its LC.
#[derive(Clone, Copy, Debug)]
pub struct VmUsage {
    /// Which VM.
    pub vm: VmId,
    /// Reserved capacity.
    pub requested: ResourceVector,
    /// Demand observed at sampling time.
    pub used: ResourceVector,
}

/// LC → GM: periodic monitoring report ("VM monitoring data reception
/// from LCs", §II-A). Its arrival also feeds the GM's failure detector.
#[derive(Clone, Debug)]
pub struct LcMonitoring {
    /// The LC's total capacity.
    pub capacity: ResourceVector,
    /// Sum of resident reservations.
    pub reserved: ResourceVector,
    /// Per-VM usage snapshots.
    pub vms: Vec<VmUsage>,
    /// True if the node is powered on (false while suspended — sent as a
    /// final report when entering suspend).
    pub powered_on: bool,
    /// When the LC sampled this.
    pub sampled_at: SimTime,
}

/// Anomaly class an LC can detect locally (§II-A: LCs "detect local
/// overload/underload anomaly situations and report them").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AnomalyKind {
    /// Demand above the overload threshold in some dimension.
    Overload,
    /// Demand below the underload threshold in every dimension.
    Underload,
}

/// LC → GM: anomaly report.
#[derive(Clone, Debug)]
pub struct AnomalyReport {
    /// What was detected.
    pub kind: AnomalyKind,
    /// Snapshot backing the detection.
    pub monitoring: LcMonitoring,
}

// ---------------------------------------------------------------------------
// GL → GM dispatching, GM → LC commands
// ---------------------------------------------------------------------------

/// GL → GM: try to place this VM on one of your LCs.
#[derive(Clone, Debug)]
pub struct PlaceVmRequest {
    /// What to place.
    pub spec: VmSpec,
    /// Its workload.
    pub workload: VmWorkload,
}

/// GM → GL: placement outcome.
#[derive(Clone, Copy, Debug)]
pub struct PlaceVmResponse {
    /// Which VM.
    pub vm: VmId,
    /// The LC it landed on, or `None` if the GM had no room.
    pub placed_on: Option<ComponentId>,
}

/// GM → LC: start a VM.
#[derive(Clone, Debug)]
pub struct StartVm {
    /// What to start.
    pub spec: VmSpec,
    /// Its workload.
    pub workload: VmWorkload,
}

/// LC → GM: VM start outcome (sent after the boot delay).
#[derive(Clone, Copy, Debug)]
pub struct StartVmResult {
    /// Which VM.
    pub vm: VmId,
    /// Whether admission succeeded.
    pub ok: bool,
}

/// GM → LC: live-migrate a VM to another LC.
#[derive(Clone, Copy, Debug)]
pub struct MigrateVm {
    /// The VM to move.
    pub vm: VmId,
    /// Destination LC.
    pub to: ComponentId,
}

/// Source LC → GM: the migration command cannot be executed right now
/// (the guest is booting or already migrating). The GM rolls back its
/// bookkeeping and may retry on a later anomaly report.
#[derive(Clone, Copy, Debug)]
pub struct MigrateRefused {
    /// Which VM.
    pub vm: VmId,
}

/// Source LC → destination LC: the migrated VM's state (the final
/// stop-and-copy hand-off).
#[derive(Clone, Debug)]
pub struct VmHandoff {
    /// The VM's spec.
    pub spec: VmSpec,
    /// Its workload.
    pub workload: VmWorkload,
}

/// Destination LC → GM: migration completed (or failed on admission).
#[derive(Clone, Copy, Debug)]
pub struct MigrationDone {
    /// Which VM.
    pub vm: VmId,
    /// Whether the destination admitted it.
    pub ok: bool,
}

/// GM → LC: enter the administrator-configured low-power state.
#[derive(Clone, Copy, Debug)]
pub struct SuspendNode;

/// GM → LC: wake up (wake-on-LAN reaches suspended nodes).
#[derive(Clone, Copy, Debug)]
pub struct WakeNode;

/// LC → GM: power-state change notification.
#[derive(Clone, Copy, Debug)]
pub struct NodePowerChanged {
    /// True once the node is back on; false when it entered suspend.
    pub powered_on: bool,
}

// ---------------------------------------------------------------------------
// GM → GL placement progress
// ---------------------------------------------------------------------------

/// GM → GL: a dispatched VM is now running on `lc`.
#[derive(Clone, Copy, Debug)]
pub struct VmActive {
    /// The VM.
    pub vm: VmId,
    /// Where it runs.
    pub lc: ComponentId,
}

/// GM → GL: a previously accepted VM could not be started after retries.
#[derive(Clone, Copy, Debug)]
pub struct VmFailed {
    /// The VM.
    pub vm: VmId,
}

// ---------------------------------------------------------------------------
// The closed message set
// ---------------------------------------------------------------------------

/// Declares [`SnoozeMsg`]: one variant per management-plane message
/// struct (variant name = struct name) — held directly if listed under
/// `inline`, as `Box<T>` if listed under `boxed` — plus the `From`
/// conversions so send sites pass the bare struct either way.
macro_rules! snooze_msg {
    (
        inline: [ $( $ty:ident ),+ $(,)? ],
        boxed: [ $( $fat:ident ),+ $(,)? ] $(,)?
    ) => {
        /// Every message the Snooze management plane can carry — the
        /// engine's message type for a Snooze deployment.
        ///
        /// Coordination traffic (election, sessions, watches) rides in
        /// the [`SnoozeMsg::Protocol`] variant; everything else is one
        /// variant per struct in [`crate::messages`].
        #[derive(Clone, Debug)]
        pub enum SnoozeMsg {
            /// Coordination traffic: requests to and replies from the
            /// ZooKeeper stand-in (see
            /// [`snooze_protocols::coordination::ProtocolMsg`]).
            Protocol(Box<ProtocolMsg>),
            $(
                #[doc = concat!("A [`", stringify!($ty), "`] message.")]
                $ty($ty),
            )+
            $(
                #[doc = concat!("A [`", stringify!($fat), "`] message, boxed.")]
                $fat(Box<$fat>),
            )+
        }

        $(
            impl From<$ty> for SnoozeMsg {
                fn from(m: $ty) -> Self {
                    SnoozeMsg::$ty(m)
                }
            }
        )+

        $(
            impl From<$fat> for SnoozeMsg {
                fn from(m: $fat) -> Self {
                    SnoozeMsg::$fat(Box::new(m))
                }
            }

            impl From<Box<$fat>> for SnoozeMsg {
                fn from(m: Box<$fat>) -> Self {
                    SnoozeMsg::$fat(m)
                }
            }
        )+

        impl SnoozeMsg {
            /// The static variant name, with coordination traffic split
            /// by direction (`Protocol.Request` / `Protocol.Reply`).
            ///
            /// This is the engine's message classifier for Snooze
            /// deployments: the profiler's per-(component kind, message
            /// variant) attribution, the flight recorder's event labels
            /// and the `dead_letters{msg=..}` breakdown all key on it.
            pub fn variant_name(&self) -> &'static str {
                match self {
                    SnoozeMsg::Protocol(p) => match **p {
                        ProtocolMsg::Request(_) => "Protocol.Request",
                        ProtocolMsg::Reply(_) => "Protocol.Reply",
                    },
                    $( SnoozeMsg::$ty(_) => stringify!($ty), )+
                    $( SnoozeMsg::$fat(_) => stringify!($fat), )+
                }
            }
        }

        #[cfg(test)]
        #[test]
        fn inline_variants_fit_their_slot() {
            // Largest payload a variant may carry inline; anything bigger
            // is listed under `boxed` (see the module docs).
            const INLINE_MAX: usize = 32;
            $(
                let size = std::mem::size_of::<$ty>();
                assert!(
                    size <= INLINE_MAX,
                    "{} is {size} B, over the {INLINE_MAX} B an inline variant may \
                     weigh: list it under `boxed`",
                    stringify!($ty),
                );
            )+
        }
    };
}

snooze_msg! {
    inline: [
        DiscoverGl, GlInfo, VmPlaced, VmRejected, DestroyVm,
        HierarchyQuery, HierarchySnapshot,
        GlHeartbeat, GmLcHeartbeat,
        GmJoin, LcAssignRequest, LcAssignment, LcJoin, LcJoinAckWithGroup,
        PlaceVmResponse, StartVmResult,
        MigrateVm, MigrateRefused, MigrationDone,
        SuspendNode, WakeNode, NodePowerChanged,
        VmActive, VmFailed,
    ],
    boxed: [
        SubmitVm, GmHeartbeat, LcMonitoring, AnomalyReport,
        PlaceVmRequest, StartVm, VmHandoff,
    ],
}

impl From<ProtocolMsg> for SnoozeMsg {
    fn from(m: ProtocolMsg) -> Self {
        SnoozeMsg::Protocol(Box::new(m))
    }
}

impl ProtocolCarrier for SnoozeMsg {
    fn into_protocol(self) -> Option<ProtocolMsg> {
        match self {
            SnoozeMsg::Protocol(p) => Some(*p),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Model-checking folds: every in-flight message is part of the system
// state the checker deduplicates on, so each variant folds a distinct
// discriminant plus its behavior-relevant payload.
// ---------------------------------------------------------------------------

impl McState for GmHeartbeat {
    fn mc_fold(&self, h: &mut McHasher) {
        self.used.mc_fold(h);
        self.total.mc_fold(h);
        self.reserved.mc_fold(h);
        h.word(self.n_lcs as u64);
        h.word(self.n_vms as u64);
    }
}

impl McState for VmUsage {
    fn mc_fold(&self, h: &mut McHasher) {
        self.vm.mc_fold(h);
        self.requested.mc_fold(h);
        self.used.mc_fold(h);
    }
}

impl McState for LcMonitoring {
    fn mc_fold(&self, h: &mut McHasher) {
        self.capacity.mc_fold(h);
        self.reserved.mc_fold(h);
        h.word(self.vms.len() as u64);
        for u in &self.vms {
            u.mc_fold(h);
        }
        h.flag(self.powered_on);
        h.time(self.sampled_at);
    }
}

impl McState for SnoozeMsg {
    fn mc_fold(&self, h: &mut McHasher) {
        match self {
            SnoozeMsg::Protocol(p) => {
                h.word(1);
                p.mc_fold(h);
            }
            SnoozeMsg::DiscoverGl(_) => h.word(2),
            SnoozeMsg::GlInfo(m) => {
                h.word(3);
                h.opt_id(m.gl);
            }
            SnoozeMsg::SubmitVm(m) => {
                h.word(4);
                m.spec.mc_fold(h);
                m.workload.mc_fold(h);
                h.id(m.client);
            }
            SnoozeMsg::VmPlaced(m) => {
                h.word(5);
                m.vm.mc_fold(h);
                h.id(m.gm);
                h.id(m.lc);
            }
            SnoozeMsg::VmRejected(m) => {
                h.word(6);
                m.vm.mc_fold(h);
            }
            SnoozeMsg::DestroyVm(m) => {
                h.word(7);
                m.vm.mc_fold(h);
            }
            SnoozeMsg::HierarchyQuery(_) => h.word(8),
            SnoozeMsg::HierarchySnapshot(m) => {
                h.word(9);
                h.id(m.gl);
                h.word(m.gms.len() as u64);
                for (gm, hb) in &m.gms {
                    h.id(*gm);
                    hb.mc_fold(h);
                }
            }
            SnoozeMsg::GlHeartbeat(m) => {
                h.word(10);
                h.id(m.gl);
            }
            SnoozeMsg::GmHeartbeat(m) => {
                h.word(11);
                m.mc_fold(h);
            }
            SnoozeMsg::GmLcHeartbeat(m) => {
                h.word(12);
                h.id(m.gm);
            }
            SnoozeMsg::GmJoin(_) => h.word(13),
            SnoozeMsg::LcAssignRequest(m) => {
                h.word(14);
                m.capacity.mc_fold(h);
            }
            SnoozeMsg::LcAssignment(m) => {
                h.word(15);
                h.id(m.gm);
            }
            SnoozeMsg::LcJoin(m) => {
                h.word(16);
                m.capacity.mc_fold(h);
            }
            SnoozeMsg::LcJoinAckWithGroup(m) => {
                h.word(17);
                h.word(m.group.0 as u64);
            }
            SnoozeMsg::LcMonitoring(m) => {
                h.word(18);
                m.mc_fold(h);
            }
            SnoozeMsg::AnomalyReport(m) => {
                h.word(19);
                h.word(match m.kind {
                    AnomalyKind::Overload => 1,
                    AnomalyKind::Underload => 2,
                });
                m.monitoring.mc_fold(h);
            }
            SnoozeMsg::PlaceVmRequest(m) => {
                h.word(20);
                m.spec.mc_fold(h);
                m.workload.mc_fold(h);
            }
            SnoozeMsg::PlaceVmResponse(m) => {
                h.word(21);
                m.vm.mc_fold(h);
                h.opt_id(m.placed_on);
            }
            SnoozeMsg::StartVm(m) => {
                h.word(22);
                m.spec.mc_fold(h);
                m.workload.mc_fold(h);
            }
            SnoozeMsg::StartVmResult(m) => {
                h.word(23);
                m.vm.mc_fold(h);
                h.flag(m.ok);
            }
            SnoozeMsg::MigrateVm(m) => {
                h.word(24);
                m.vm.mc_fold(h);
                h.id(m.to);
            }
            SnoozeMsg::MigrateRefused(m) => {
                h.word(25);
                m.vm.mc_fold(h);
            }
            SnoozeMsg::VmHandoff(m) => {
                h.word(26);
                m.spec.mc_fold(h);
                m.workload.mc_fold(h);
            }
            SnoozeMsg::MigrationDone(m) => {
                h.word(27);
                m.vm.mc_fold(h);
                h.flag(m.ok);
            }
            SnoozeMsg::SuspendNode(_) => h.word(28),
            SnoozeMsg::WakeNode(_) => h.word(29),
            SnoozeMsg::NodePowerChanged(m) => {
                h.word(30);
                h.flag(m.powered_on);
            }
            SnoozeMsg::VmActive(m) => {
                h.word(31);
                m.vm.mc_fold(h);
                h.id(m.lc);
            }
            SnoozeMsg::VmFailed(m) => {
                h.word(32);
                m.vm.mc_fold(h);
            }
        }
    }
}

#[cfg(test)]
mod variant_tests {
    use super::*;

    #[test]
    fn variant_names_are_stable_and_split_protocol_by_direction() {
        use snooze_protocols::coordination::ZkRequest;
        assert_eq!(SnoozeMsg::from(WakeNode).variant_name(), "WakeNode");
        assert_eq!(SnoozeMsg::from(DiscoverGl).variant_name(), "DiscoverGl");
        let req = SnoozeMsg::from(ProtocolMsg::Request(ZkRequest::Ping { epoch: 0 }));
        assert_eq!(req.variant_name(), "Protocol.Request");
    }
}
