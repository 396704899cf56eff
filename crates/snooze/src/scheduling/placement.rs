//! GM-level placement policies (paper §II-C: "Policies of the former
//! type (e.g. round robin or first-fit) are triggered event-based to
//! place incoming VMs on LCs").
//!
//! Placement is reservation-based: a VM may only go where the sum of
//! reservations stays within node capacity, regardless of current usage
//! (usage is bursty; reservations are the contract).

use snooze_cluster::vm::VmSpec;
use snooze_simcore::engine::ComponentId;

use super::LcView;

/// Which placement policy GMs run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementKind {
    /// Lowest-id LC that fits.
    FirstFit,
    /// Rotate over fitting LCs.
    RoundRobin,
}

/// Stateful placement engine.
#[derive(Clone, Debug)]
pub struct Placer {
    kind: PlacementKind,
    cursor: usize,
}

impl Placer {
    /// A placer of the given kind.
    pub fn new(kind: PlacementKind) -> Self {
        Placer { kind, cursor: 0 }
    }

    /// Choose an LC for `spec` among `lcs`, or `None` if nothing fits.
    /// Only powered-on LCs are considered — waking a node is the energy
    /// manager's decision, taken when this returns `None`.
    pub fn place(&mut self, spec: &VmSpec, lcs: &[LcView]) -> Option<ComponentId> {
        let mut fitting: Vec<&LcView> = lcs
            .iter()
            .filter(|l| l.can_reserve(&spec.requested))
            .collect();
        if fitting.is_empty() {
            return None;
        }
        fitting.sort_by_key(|l| l.lc);
        match self.kind {
            PlacementKind::FirstFit => Some(fitting[0].lc),
            PlacementKind::RoundRobin => {
                let pick = fitting[self.cursor % fitting.len()].lc;
                self.cursor = self.cursor.wrapping_add(1);
                Some(pick)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snooze_cluster::resources::ResourceVector;
    use snooze_cluster::vm::VmId;

    fn lc(id: usize, cap: f64, reserved: f64, on: bool) -> LcView {
        LcView {
            lc: ComponentId(id),
            capacity: ResourceVector::splat(cap),
            reserved: ResourceVector::splat(reserved),
            used_estimate: ResourceVector::ZERO,
            powered_on: on,
            waking: false,
            n_vms: 0,
        }
    }

    fn spec(size: f64) -> VmSpec {
        VmSpec::new(VmId(1), ResourceVector::splat(size))
    }

    #[test]
    fn first_fit_takes_lowest_id() {
        let lcs = [lc(3, 10.0, 0.0, true), lc(1, 10.0, 0.0, true)];
        let mut p = Placer::new(PlacementKind::FirstFit);
        assert_eq!(p.place(&spec(1.0), &lcs), Some(ComponentId(1)));
    }

    #[test]
    fn round_robin_cycles_through_fitting() {
        let lcs = [lc(0, 10.0, 0.0, true), lc(1, 10.0, 0.0, true)];
        let mut p = Placer::new(PlacementKind::RoundRobin);
        let a = p.place(&spec(1.0), &lcs).unwrap();
        let b = p.place(&spec(1.0), &lcs).unwrap();
        let c = p.place(&spec(1.0), &lcs).unwrap();
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn suspended_lcs_are_invisible() {
        let lcs = [lc(0, 10.0, 0.0, false), lc(1, 10.0, 9.5, true)];
        let mut p = Placer::new(PlacementKind::FirstFit);
        assert_eq!(
            p.place(&spec(1.0), &lcs),
            None,
            "only fit is suspended; big VM can't fit lc1"
        );
        assert_eq!(p.place(&spec(0.2), &lcs), Some(ComponentId(1)));
    }

    #[test]
    fn reservation_not_usage_governs_admission() {
        // Heavily *used* but lightly *reserved* node still accepts.
        let mut view = lc(0, 10.0, 2.0, true);
        view.used_estimate = ResourceVector::splat(9.0);
        let mut p = Placer::new(PlacementKind::FirstFit);
        assert_eq!(p.place(&spec(5.0), &[view]), Some(ComponentId(0)));
    }
}
