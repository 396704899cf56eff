//! GL-level dispatching (paper §II-C).
//!
//! "At the GL level, VM to GM dispatching decisions are taken based on
//! the GM resource summary information. … Note that summary information
//! is not sufficient to take exact dispatching decisions. … Consequently,
//! a list of candidate GMs is provided by the dispatching policies.
//! Based on this list, a linear search is performed by issuing VM
//! placement requests to the GMs."
//!
//! The GL runs one policy, least-loaded: no scenario selects another.

use snooze_cluster::vm::VmSpec;
use snooze_simcore::engine::ComponentId;

use super::GmSummaryView;

/// The ordered candidate-GM list for `spec`: the GMs with the most free
/// (unreserved) capacity first, ties to the lower id.
///
/// Only GMs that manage an LC and whose *free summary capacity* could
/// hold the VM are candidates — but as the paper stresses, a fitting
/// summary does not guarantee a fitting LC, so callers must
/// linear-search the list.
pub fn candidates(spec: &VmSpec, gms: &[GmSummaryView]) -> Vec<ComponentId> {
    let mut fitting: Vec<&GmSummaryView> = gms
        .iter()
        .filter(|g| g.n_lcs > 0 && spec.requested.fits_within(&g.free()))
        .collect();
    fitting.sort_by(|a, b| {
        let fa = a.free().l1();
        let fb = b.free().l1();
        fb.total_cmp(&fa).then(a.gm.cmp(&b.gm))
    });
    fitting.into_iter().map(|g| g.gm).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snooze_cluster::resources::ResourceVector;
    use snooze_cluster::vm::{VmId, VmSpec};

    fn gm(id: usize, total: f64, reserved: f64) -> GmSummaryView {
        GmSummaryView {
            gm: ComponentId(id),
            used: ResourceVector::ZERO,
            total: ResourceVector::splat(total),
            reserved: ResourceVector::splat(reserved),
            n_lcs: 4,
            n_vms: 0,
        }
    }

    fn spec(size: f64) -> VmSpec {
        VmSpec::new(VmId(1), ResourceVector::splat(size))
    }

    #[test]
    fn gms_the_vm_does_not_fit_are_filtered() {
        let gms = [gm(2, 10.0, 9.5), gm(0, 10.0, 2.0), gm(1, 10.0, 0.0)];
        // Size 1.0 doesn't fit gm2 (free 0.5).
        assert_eq!(
            candidates(&spec(1.0), &gms),
            vec![ComponentId(1), ComponentId(0)]
        );
    }

    #[test]
    fn least_loaded_prefers_most_free() {
        let gms = [gm(0, 10.0, 8.0), gm(1, 10.0, 1.0), gm(2, 10.0, 5.0)];
        assert_eq!(
            candidates(&spec(1.0), &gms),
            vec![ComponentId(1), ComponentId(2), ComponentId(0)]
        );
    }

    #[test]
    fn least_loaded_ties_go_to_the_lower_id() {
        let gms = [gm(2, 10.0, 3.0), gm(0, 10.0, 6.0), gm(1, 10.0, 3.0)];
        assert_eq!(
            candidates(&spec(1.0), &gms),
            vec![ComponentId(1), ComponentId(2), ComponentId(0)]
        );
    }

    #[test]
    fn no_candidates_when_nothing_fits() {
        let gms = [gm(0, 10.0, 9.9)];
        assert!(candidates(&spec(5.0), &gms).is_empty());
    }

    #[test]
    fn gms_without_lcs_are_skipped() {
        let mut empty = gm(0, 10.0, 0.0);
        empty.n_lcs = 0;
        assert_eq!(
            candidates(&spec(1.0), &[empty, gm(1, 10.0, 5.0)]),
            vec![ComponentId(1)]
        );
    }
}
