//! The GM's in-place placement walk (`Placer::decide`) against the
//! frozen copy-and-sort decision in `placement_reference`: on random LC
//! tables — mixed powered-on and waking flags, reservations within the
//! 1e-9 fit slack of capacity — and runs of placements through one
//! placer, applied to the table between steps as the GM applies them,
//! both must take every decision alike: the LC placed on, the sleeper
//! woken, or whether a wake is in flight.

mod placement_reference;

use proptest::prelude::*;

use placement_reference::ReferencePlacer;
use snooze::scheduling::placement::{Decision, PlacementKind, Placer, Slot};
use snooze::scheduling::LcView;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_simcore::engine::ComponentId;
use snooze_simcore::rng::SimRng;

/// Every LC's capacity.
fn capacity() -> ResourceVector {
    ResourceVector::new(8.0, 32_768.0, 1000.0, 1000.0)
}

/// Offsets from an exact fit: inside, on and just past the 1e-9 slack.
const SLACK: [f64; 7] = [-1e-6, -2e-9, -1e-9, 0.0, 5e-10, 1e-9, 2e-9];

/// One VM's demand: a few cores, fixed memory and network.
fn demand(cores: f64) -> ResourceVector {
    ResourceVector::new(cores, 2048.0, 50.0, 50.0)
}

/// Strategy: a table of 0–12 LCs in increasing id order, and the core
/// counts of the 1–9 VMs placed over it one after another. Each LC is
/// powered on or not and, a fifth of the time, waking; a third are
/// reserved to within the fit slack of taking `edge` cores (or the
/// matching memory) more, where `edge` is one of the VMs' sizes, and
/// the rest hold any reservation up to capacity.
fn scenario() -> impl Strategy<Value = (Vec<LcView>, Vec<f64>)> {
    any::<u64>().prop_map(|seed| {
        let mut rng = SimRng::new(seed);
        let edge = *rng.choose(&[1.0, 2.0, 4.0]).unwrap();
        let fit = capacity() - demand(edge);
        let mut id = 0;
        let lcs = (0..rng.range(0, 13))
            .map(|_| {
                id += rng.range(1, 4);
                let slack = *rng.choose(&SLACK).unwrap();
                let reserved = match rng.range(0, 3) {
                    0 => ResourceVector::new(rng.uniform(0.0, 8.0), 4096.0, 100.0, 100.0),
                    1 => ResourceVector::new(fit.cpu + slack, fit.memory, fit.net_rx, fit.net_tx),
                    _ => ResourceVector::new(1.0, fit.memory + slack * 1e3, 100.0, 100.0),
                };
                LcView {
                    lc: ComponentId(id),
                    capacity: capacity(),
                    reserved,
                    used_estimate: ResourceVector::ZERO,
                    powered_on: rng.chance(0.5),
                    waking: rng.chance(0.2),
                    n_vms: 0,
                }
            })
            .collect();
        let cores = (0..rng.range(1, 10))
            .map(|_| *rng.choose(&[edge, 0.5, 6.0]).unwrap())
            .collect();
        (lcs, cores)
    })
}

/// The in-place walk over the same table.
fn decide(placer: &mut Placer, spec: &VmSpec, lcs: &[LcView]) -> Decision {
    let slots = lcs.iter().map(|l| Slot {
        lc: l.lc,
        capacity: &l.capacity,
        reserved: &l.reserved,
        powered_on: l.powered_on,
        waking: l.waking,
    });
    placer.decide(&spec.requested, slots)
}

/// Apply a decision to the table the way the GM applies it to its
/// records: a placement reserves, a wake marks the LC waking.
fn apply(lcs: &mut [LcView], decision: Decision, spec: &VmSpec) {
    match decision {
        Decision::Place(lc) => {
            let row = lcs.iter_mut().find(|l| l.lc == lc).unwrap();
            row.reserved += spec.requested;
            row.n_vms += 1;
        }
        Decision::Wake(lc) => lcs.iter_mut().find(|l| l.lc == lc).unwrap().waking = true,
        Decision::Wait { .. } => {}
    }
}

fn run_both(kind: PlacementKind, mut lcs: Vec<LcView>, cores: &[f64]) -> Result<(), TestCaseError> {
    let mut reference = ReferencePlacer::new(kind);
    let mut placer = Placer::new(kind);
    for (i, &c) in cores.iter().enumerate() {
        let spec = VmSpec::new(VmId(i as u64), demand(c));
        let want = reference.decide(&spec, &lcs);
        let got = decide(&mut placer, &spec, &lcs);
        prop_assert_eq!(got, want, "{:?}, VM {} of {} cores", kind, i, c);
        apply(&mut lcs, want, &spec);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn first_fit_decides_as_the_reference(case in scenario()) {
        run_both(PlacementKind::FirstFit, case.0, &case.1)?;
    }

    #[test]
    fn round_robin_decides_as_the_reference(case in scenario()) {
        run_both(PlacementKind::RoundRobin, case.0, &case.1)?;
    }
}

#[test]
fn when_nothing_awake_fits_both_wake_the_same_sleeper() {
    // LC 1 is awake but full, LC 2 asleep and too small, LC 4 already
    // waking, LC 6 the first sleeper that fits; LC 9 fits too.
    let view = |id: usize, reserved: f64, powered_on: bool, waking: bool| LcView {
        lc: ComponentId(id),
        capacity: capacity(),
        reserved: ResourceVector::new(reserved, 0.0, 0.0, 0.0),
        used_estimate: ResourceVector::ZERO,
        powered_on,
        waking,
        n_vms: 0,
    };
    let lcs = vec![
        view(1, 7.0, true, false),
        view(2, 6.0, false, false),
        view(4, 0.0, false, true),
        view(6, 4.0, false, false),
        view(9, 0.0, false, false),
    ];
    for kind in [PlacementKind::FirstFit, PlacementKind::RoundRobin] {
        let spec = VmSpec::new(VmId(1), demand(4.0));
        let want = ReferencePlacer::new(kind).decide(&spec, &lcs);
        assert_eq!(want, Decision::Wake(ComponentId(6)));
        assert_eq!(decide(&mut Placer::new(kind), &spec, &lcs), want);
    }
}
