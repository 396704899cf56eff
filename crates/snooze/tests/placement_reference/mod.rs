//! The GM's placement decision as it stood before it read the LC table
//! in place: every LC record copied into a `Vec<LcView>`, the fitting
//! ones filtered into a second `Vec` and sorted by id, and — when none
//! fits — the table searched again for the first sleeper that would
//! fit, then once more for any LC already waking. Kept only so
//! `placement.rs` can hold `Placer::decide` to it — do not optimise
//! this file.

use snooze::scheduling::placement::{Decision, PlacementKind};
use snooze::scheduling::LcView;
use snooze_cluster::vm::VmSpec;
use snooze_simcore::engine::ComponentId;

/// The old stateful placer, over a snapshot of views.
pub struct ReferencePlacer {
    kind: PlacementKind,
    cursor: usize,
}

impl ReferencePlacer {
    pub fn new(kind: PlacementKind) -> Self {
        ReferencePlacer { kind, cursor: 0 }
    }

    /// Choose an LC for `spec` among `lcs`, or `None` if nothing fits.
    /// Only powered-on LCs are considered.
    fn place(&mut self, spec: &VmSpec, lcs: &[LcView]) -> Option<ComponentId> {
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

    /// The old `try_place` and its callers' follow-up walk, as one
    /// decision: the placer's pick, else the first sleeper that fits and
    /// is not waking, else whether any LC is waking.
    pub fn decide(&mut self, spec: &VmSpec, lcs: &[LcView]) -> Decision {
        if let Some(lc) = self.place(spec, lcs) {
            return Decision::Place(lc);
        }
        let wake_target = lcs
            .iter()
            .find(|r| {
                !r.powered_on && !r.waking && (r.reserved + spec.requested).fits_within(&r.capacity)
            })
            .map(|r| r.lc);
        match wake_target {
            Some(lc) => Decision::Wake(lc),
            None => Decision::Wait {
                waking: lcs.iter().any(|r| r.waking),
            },
        }
    }
}
