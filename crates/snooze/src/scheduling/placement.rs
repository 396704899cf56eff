//! GM-level placement policies (paper §II-C: "Policies of the former
//! type (e.g. round robin or first-fit) are triggered event-based to
//! place incoming VMs on LCs").
//!
//! Placement is reservation-based: a VM may only go where the sum of
//! reservations stays within node capacity, regardless of current usage
//! (usage is bursty; reservations are the contract).

use snooze_cluster::resources::ResourceVector;
use snooze_simcore::engine::ComponentId;

/// Which placement policy GMs run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementKind {
    /// Lowest-id LC that fits.
    FirstFit,
    /// Rotate over fitting LCs.
    RoundRobin,
}

/// One LC as placement reads it, borrowed from wherever its record
/// lives: a GM's table row or an [`super::LcView`].
#[derive(Clone, Copy, Debug)]
pub struct Slot<'a> {
    /// The LC.
    pub lc: ComponentId,
    /// Node capacity.
    pub capacity: &'a ResourceVector,
    /// Reserved by resident VMs.
    pub reserved: &'a ResourceVector,
    /// Powered on and able to take VMs.
    pub powered_on: bool,
    /// A wake command is in flight.
    pub waking: bool,
}

/// What one walk over a GM's LCs decided for one VM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Start it on this powered-on LC.
    Place(ComponentId),
    /// No powered-on LC fits: wake this one, the lowest-id sleeper that
    /// would, and no wake is in flight to it yet.
    Wake(ComponentId),
    /// Nothing fits and there is no sleeper left to wake; `waking` says
    /// whether a wake is already in flight to some LC.
    Wait {
        /// Some LC is waking up.
        waking: bool,
    },
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

    /// Decide where a VM reserving `demand` goes, over `slots` in
    /// increasing LC id. Only powered-on LCs take it; when none fits,
    /// the lowest-id sleeper that would fit and is not already waking is
    /// named for the energy manager to wake.
    ///
    /// One walk counts the powered-on LCs that fit and notes the first
    /// fitting sleeper and whether any LC is waking; first-fit stops at
    /// its pick. Round-robin takes the `cursor % count`-th fitting LC in
    /// a second walk, cut short at it, and advances the cursor only when
    /// something fits.
    pub fn decide<'a, I>(&mut self, demand: &ResourceVector, slots: I) -> Decision
    where
        I: Iterator<Item = Slot<'a>> + Clone,
    {
        debug_assert!(
            slots
                .clone()
                .zip(slots.clone().skip(1))
                .all(|(a, b)| a.lc < b.lc),
            "placement walks LCs in increasing id order"
        );
        let fits = |s: &Slot<'_>| (*s.reserved + *demand).fits_within(s.capacity);
        let mut count = 0usize;
        let mut sleeper = None;
        let mut waking = false;
        for s in slots.clone() {
            waking |= s.waking;
            if s.powered_on {
                if fits(&s) {
                    if self.kind == PlacementKind::FirstFit {
                        return Decision::Place(s.lc);
                    }
                    count += 1;
                }
            } else if !s.waking && sleeper.is_none() && fits(&s) {
                sleeper = Some(s.lc);
            }
        }
        if count == 0 {
            return match sleeper {
                Some(lc) => Decision::Wake(lc),
                None => Decision::Wait { waking },
            };
        }
        let nth = self.cursor % count;
        self.cursor = self.cursor.wrapping_add(1);
        let pick = slots
            .filter(|s| s.powered_on && fits(s))
            .nth(nth)
            .expect("the count walk saw this many fitting LCs");
        Decision::Place(pick.lc)
    }
}

#[cfg(test)]
mod tests {
    use super::super::LcView;
    use super::*;

    struct Lc {
        lc: ComponentId,
        capacity: ResourceVector,
        reserved: ResourceVector,
        on: bool,
        waking: bool,
    }

    fn lc(id: usize, cap: f64, reserved: f64, on: bool) -> Lc {
        Lc {
            lc: ComponentId(id),
            capacity: ResourceVector::splat(cap),
            reserved: ResourceVector::splat(reserved),
            on,
            waking: false,
        }
    }

    fn decide(p: &mut Placer, size: f64, lcs: &[Lc]) -> Decision {
        let slots = lcs.iter().map(|l| Slot {
            lc: l.lc,
            capacity: &l.capacity,
            reserved: &l.reserved,
            powered_on: l.on,
            waking: l.waking,
        });
        p.decide(&ResourceVector::splat(size), slots)
    }

    #[test]
    fn first_fit_takes_lowest_id() {
        let lcs = [
            lc(1, 10.0, 9.5, true),
            lc(3, 10.0, 0.0, true),
            lc(4, 10.0, 0.0, true),
        ];
        let mut p = Placer::new(PlacementKind::FirstFit);
        assert_eq!(decide(&mut p, 1.0, &lcs), Decision::Place(ComponentId(3)));
        assert_eq!(decide(&mut p, 1.0, &lcs), Decision::Place(ComponentId(3)));
    }

    #[test]
    fn round_robin_cycles_through_fitting() {
        let lcs = [
            lc(0, 10.0, 0.0, true),
            lc(1, 10.0, 9.5, true),
            lc(2, 10.0, 0.0, true),
        ];
        let mut p = Placer::new(PlacementKind::RoundRobin);
        let picks: Vec<Decision> = (0..3).map(|_| decide(&mut p, 1.0, &lcs)).collect();
        let place = |id| Decision::Place(ComponentId(id));
        assert_eq!(picks, [place(0), place(2), place(0)]);
    }

    #[test]
    fn round_robin_holds_its_cursor_while_nothing_fits() {
        let lcs = [lc(0, 10.0, 0.0, true), lc(1, 10.0, 0.0, true)];
        let mut p = Placer::new(PlacementKind::RoundRobin);
        assert_eq!(decide(&mut p, 1.0, &lcs), Decision::Place(ComponentId(0)));
        assert_eq!(decide(&mut p, 20.0, &lcs), Decision::Wait { waking: false });
        assert_eq!(decide(&mut p, 1.0, &lcs), Decision::Place(ComponentId(1)));
    }

    #[test]
    fn suspended_lcs_are_invisible() {
        // A suspended LC that fits is never a placement target, under
        // either policy, while a powered-on LC fits.
        let lcs = [
            lc(0, 10.0, 0.0, false),
            lc(1, 10.0, 0.0, true),
            lc(2, 10.0, 0.0, false),
            lc(3, 10.0, 0.0, true),
        ];
        let mut ff = Placer::new(PlacementKind::FirstFit);
        assert_eq!(decide(&mut ff, 1.0, &lcs), Decision::Place(ComponentId(1)));
        let mut rr = Placer::new(PlacementKind::RoundRobin);
        let picks: Vec<Decision> = (0..3).map(|_| decide(&mut rr, 1.0, &lcs)).collect();
        let place = |id| Decision::Place(ComponentId(id));
        assert_eq!(picks, [place(1), place(3), place(1)]);
    }

    #[test]
    fn reservation_not_usage_governs_admission() {
        // Heavily *used* but lightly *reserved* node still accepts; a
        // lightly used but heavily reserved one does not.
        let view = |reserved: f64, used: f64| LcView {
            lc: ComponentId(0),
            capacity: ResourceVector::splat(10.0),
            reserved: ResourceVector::splat(reserved),
            used_estimate: ResourceVector::splat(used),
            powered_on: true,
            waking: false,
            n_vms: 1,
        };
        let decide_on = |v: &LcView| {
            let slot = Slot {
                lc: v.lc,
                capacity: &v.capacity,
                reserved: &v.reserved,
                powered_on: v.powered_on,
                waking: v.waking,
            };
            let mut p = Placer::new(PlacementKind::FirstFit);
            p.decide(&ResourceVector::splat(5.0), std::iter::once(slot))
        };
        assert_eq!(decide_on(&view(2.0, 9.0)), Decision::Place(ComponentId(0)));
        assert_eq!(decide_on(&view(6.0, 0.0)), Decision::Wait { waking: false });
    }

    #[test]
    fn a_sleeper_is_woken_only_when_nothing_awake_fits() {
        let lcs = [lc(0, 10.0, 0.0, false), lc(1, 10.0, 9.5, true)];
        let mut p = Placer::new(PlacementKind::FirstFit);
        assert_eq!(decide(&mut p, 1.0, &lcs), Decision::Wake(ComponentId(0)));
        assert_eq!(decide(&mut p, 0.2, &lcs), Decision::Place(ComponentId(1)));
    }

    #[test]
    fn a_waking_lc_is_not_woken_twice_but_is_reported() {
        let mut lcs = [lc(0, 10.0, 0.0, false), lc(1, 10.0, 0.0, false)];
        lcs[0].waking = true;
        let mut p = Placer::new(PlacementKind::FirstFit);
        assert_eq!(decide(&mut p, 1.0, &lcs), Decision::Wake(ComponentId(1)));
        lcs[1].waking = true;
        assert_eq!(decide(&mut p, 1.0, &lcs), Decision::Wait { waking: true });
    }
}
