//! Relocation policies (paper §II-C).
//!
//! "Relocation policies are called when overload (resp. underload) events
//! arrive from LCs and aim at moving VMs away from heavily (resp.
//! lightly) loaded nodes."
//!
//! * **Overload**: "VMs must be relocated to a more lightly loaded node
//!   in order to mitigate performance degradation" — pick the VM whose
//!   departure relieves the hot node the most, send it to the fitting LC
//!   with the most estimated headroom.
//! * **Underload**: "it is beneficial to move away VMs to moderately
//!   loaded LCs in order to create enough idle-time to transition the
//!   underutilized LCs into a lower power state" — drain the cold node
//!   entirely (all-or-nothing: a partial drain saves nothing), preferring
//!   destinations that are already moderately loaded and never other
//!   underloaded nodes (which should drain themselves).

use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::VmId;
use snooze_simcore::engine::ComponentId;

use super::LcView;

/// A planned migration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlannedMigration {
    /// The VM to move.
    pub vm: VmId,
    /// Its current host.
    pub from: ComponentId,
    /// Its destination.
    pub to: ComponentId,
}

/// A VM as relocation sees it: identity, reservation and estimated usage.
#[derive(Clone, Copy, Debug)]
pub struct VmView {
    /// The VM.
    pub vm: VmId,
    /// Its reservation.
    pub requested: ResourceVector,
    /// Its estimated usage.
    pub used: ResourceVector,
}

/// Plan a single migration relieving an overloaded LC. Returns `None`
/// when no destination can take any of its VMs.
pub fn plan_overload_relocation(
    source: ComponentId,
    source_vms: &[VmView],
    lcs: &[LcView],
) -> Option<PlannedMigration> {
    // Heaviest VM first: moving it relieves the most pressure.
    let mut vms: Vec<&VmView> = source_vms.iter().collect();
    vms.sort_by(|a, b| b.used.l1().total_cmp(&a.used.l1()).then(a.vm.cmp(&b.vm)));
    for vm in vms {
        // Destination: fitting powered-on LC with the most estimated
        // headroom (lightest loaded), excluding the source.
        let dest = lcs
            .iter()
            .filter(|l| l.lc != source && l.can_reserve(&vm.requested))
            .max_by(|a, b| {
                let ha = headroom(a);
                let hb = headroom(b);
                ha.partial_cmp(&hb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.lc.cmp(&a.lc))
            });
        if let Some(d) = dest {
            return Some(PlannedMigration {
                vm: vm.vm,
                from: source,
                to: d.lc,
            });
        }
    }
    None
}

/// Plan a full drain of an underloaded LC, or `None` if its VMs cannot
/// all be absorbed elsewhere. `underload_threshold` excludes destinations
/// that are themselves underloaded.
pub fn plan_underload_relocation(
    source: ComponentId,
    source_vms: &[VmView],
    lcs: &[LcView],
    underload_threshold: f64,
) -> Option<Vec<PlannedMigration>> {
    if source_vms.is_empty() {
        return None;
    }
    // Candidate destinations: powered-on, not the source, and moderately
    // loaded (paper: move "to moderately loaded LCs"). Falling back to
    // other underloaded LCs would just shift the problem around.
    let mut residuals: Vec<(ComponentId, ResourceVector, f64)> = lcs
        .iter()
        .filter(|l| l.lc != source && l.powered_on && l.utilization() >= underload_threshold)
        .map(|l| (l.lc, l.free(), l.utilization()))
        .collect();
    // Most-loaded destinations first (BFD-style: fill the fullest).
    residuals.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));

    // Largest VMs first, all-or-nothing.
    let mut vms: Vec<&VmView> = source_vms.iter().collect();
    vms.sort_by(|a, b| {
        b.requested
            .l1()
            .total_cmp(&a.requested.l1())
            .then(a.vm.cmp(&b.vm))
    });
    let mut plan = Vec::with_capacity(vms.len());
    for vm in vms {
        let slot = residuals
            .iter_mut()
            .find(|(_, free, _)| vm.requested.fits_within(free));
        match slot {
            Some((dest, free, _)) => {
                *free = free.saturating_sub(&vm.requested);
                plan.push(PlannedMigration {
                    vm: vm.vm,
                    from: source,
                    to: *dest,
                });
            }
            None => return None, // partial drains don't create idle nodes
        }
    }
    Some(plan)
}

fn headroom(lc: &LcView) -> f64 {
    lc.capacity
        .saturating_sub(&lc.used_estimate.max(&lc.reserved))
        .normalize_by(&lc.capacity)
        .l1()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lc(id: usize, cap: f64, reserved: f64, used: f64) -> LcView {
        LcView {
            lc: ComponentId(id),
            capacity: ResourceVector::splat(cap),
            reserved: ResourceVector::splat(reserved),
            used_estimate: ResourceVector::splat(used),
            powered_on: true,
            waking: false,
            n_vms: 1,
        }
    }

    fn vm(id: u64, req: f64, used: f64) -> VmView {
        VmView {
            vm: VmId(id),
            requested: ResourceVector::splat(req),
            used: ResourceVector::splat(used),
        }
    }

    #[test]
    fn overload_moves_heaviest_vm_to_lightest_destination() {
        let lcs = [
            lc(0, 10.0, 9.0, 9.5),
            lc(1, 10.0, 2.0, 2.0),
            lc(2, 10.0, 5.0, 5.0),
        ];
        let vms = [vm(10, 3.0, 1.0), vm(11, 3.0, 5.0)];
        let plan = plan_overload_relocation(ComponentId(0), &vms, &lcs).unwrap();
        assert_eq!(plan.vm, VmId(11), "heaviest by usage");
        assert_eq!(plan.to, ComponentId(1), "lightest destination");
        assert_eq!(plan.from, ComponentId(0));
    }

    #[test]
    fn overload_ties_go_to_the_lower_ids() {
        // LC 1 has less headroom than the two tied LCs, and VM 19 is
        // lighter than the two tied VMs, so the ids decide only the ties.
        // The tied entries are ordered so that a comparator that lost its
        // tie-break picks the other one: `sort_by` is stable, so VM 21
        // comes first, and `max_by` returns the last maximum, LC 3.
        let lcs = [
            lc(4, 10.0, 9.0, 9.5), // the hot source
            lc(1, 10.0, 5.0, 5.0),
            lc(2, 10.0, 2.0, 2.0),
            lc(3, 10.0, 2.0, 2.0),
        ];
        let vms = [vm(19, 1.0, 1.0), vm(21, 2.0, 3.0), vm(20, 2.0, 3.0)];
        let plan = plan_overload_relocation(ComponentId(4), &vms, &lcs).unwrap();
        assert_eq!(plan.vm, VmId(20), "equal usage: the lower VmId moves");
        assert_eq!(
            plan.to,
            ComponentId(2),
            "equal headroom: the lower id receives"
        );
    }

    #[test]
    fn overload_falls_back_to_smaller_vm_when_big_one_fits_nowhere() {
        let lcs = [lc(0, 10.0, 10.0, 9.9), lc(1, 10.0, 9.0, 5.0)];
        // Heavy VM requests 5 (no destination has that); light one requests 1.
        let vms = [vm(10, 5.0, 5.0), vm(11, 1.0, 1.0)];
        let plan = plan_overload_relocation(ComponentId(0), &vms, &lcs).unwrap();
        assert_eq!(plan.vm, VmId(11));
        assert_eq!(plan.to, ComponentId(1));
    }

    #[test]
    fn overload_returns_none_when_cluster_is_full() {
        let lcs = [lc(0, 10.0, 10.0, 9.9), lc(1, 10.0, 9.9, 9.0)];
        let vms = [vm(10, 5.0, 5.0)];
        assert!(plan_overload_relocation(ComponentId(0), &vms, &lcs).is_none());
    }

    #[test]
    fn underload_drains_everything_to_moderate_nodes() {
        let lcs = [
            lc(0, 10.0, 1.5, 0.5), // the cold source
            lc(1, 10.0, 5.0, 5.0), // moderate
            lc(2, 10.0, 6.0, 6.0), // moderate, fuller
        ];
        let vms = [vm(10, 1.0, 0.3), vm(11, 0.5, 0.2)];
        let plan = plan_underload_relocation(ComponentId(0), &vms, &lcs, 0.2).unwrap();
        assert_eq!(plan.len(), 2, "full drain");
        // Fullest destination (lc2) is filled first.
        assert!(plan.iter().all(|m| m.from == ComponentId(0)));
        assert_eq!(plan[0].to, ComponentId(2));
    }

    #[test]
    fn underload_never_targets_other_underloaded_nodes() {
        let lcs = [
            lc(0, 10.0, 1.0, 0.5), // cold source
            lc(1, 10.0, 1.0, 0.5), // another cold node — not a destination
        ];
        let vms = [vm(10, 1.0, 0.5)];
        assert!(plan_underload_relocation(ComponentId(0), &vms, &lcs, 0.2).is_none());
    }

    #[test]
    fn a_destination_exactly_at_the_threshold_is_moderately_loaded() {
        // 2 of 8 in every dimension: utilization is 0.25 with no rounding,
        // so only `>=` separates it from an underloaded node.
        let lcs = [lc(0, 8.0, 1.0, 0.5), lc(1, 8.0, 2.0, 2.0)];
        assert_eq!(lcs[1].utilization(), 0.25);
        let vms = [vm(10, 1.0, 0.5)];
        let plan = plan_underload_relocation(ComponentId(0), &vms, &lcs, 0.25);
        let plan = plan.expect("a node at the threshold takes the drain");
        assert_eq!(plan[0].to, ComponentId(1));
    }

    #[test]
    fn underload_is_all_or_nothing() {
        let lcs = [
            lc(0, 10.0, 6.0, 1.0), // cold source with a big reservation
            lc(1, 10.0, 7.0, 7.0), // moderate but only 3 free
        ];
        // 5-unit VM fits nowhere; 1-unit VM would fit. Partial drains are
        // pointless, so the whole plan must be rejected.
        let vms = [vm(10, 5.0, 0.5), vm(11, 1.0, 0.5)];
        assert!(plan_underload_relocation(ComponentId(0), &vms, &lcs, 0.2).is_none());
    }

    #[test]
    fn underload_with_no_vms_is_noop() {
        let lcs = [lc(0, 10.0, 0.0, 0.0), lc(1, 10.0, 5.0, 5.0)];
        assert!(plan_underload_relocation(ComponentId(0), &[], &lcs, 0.2).is_none());
    }

    #[test]
    fn suspended_destinations_are_excluded() {
        let mut sleepy = lc(1, 10.0, 5.0, 5.0);
        sleepy.powered_on = false;
        let lcs = [lc(0, 10.0, 1.0, 0.5), sleepy];
        let vms = [vm(10, 1.0, 0.5)];
        assert!(plan_underload_relocation(ComponentId(0), &vms, &lcs, 0.2).is_none());
    }
}
