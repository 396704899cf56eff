//! Per-node hypervisor simulation — the libvirt/KVM stand-in.
//!
//! A [`Hypervisor`] is a *passive* state container owned by a Local
//! Controller component: it tracks the guests on one node, enforces
//! reservation-based admission, aggregates time-varying usage, and applies
//! proportional-share throttling when demand exceeds capacity (which is
//! how overload manifests as "performance degradation" — the thing
//! §II-C's overload relocation exists to mitigate).

use snooze_simcore::mc::{McHasher, McState};
use snooze_simcore::time::SimTime;

use crate::resources::{ResourceVector, DIMS};
use crate::vm::{VmId, VmSpec, VmState};
use crate::workload::VmWorkload;

/// A guest VM resident on a node.
#[derive(Clone, Debug)]
pub struct GuestVm {
    /// The guest's specification.
    pub spec: VmSpec,
    /// Its demand generator.
    pub workload: VmWorkload,
    /// Lifecycle state.
    pub state: VmState,
    /// When it was admitted to this node.
    pub admitted_at: SimTime,
}

/// Why admission failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdmitError {
    /// Admitting would oversubscribe the node's reservation capacity.
    InsufficientCapacity,
    /// A guest with this id is already resident.
    DuplicateVm,
}

/// Hypervisor state for one node.
#[derive(Clone, Debug)]
pub struct Hypervisor {
    capacity: ResourceVector,
    /// Resident guests in `VmId` order, searched by bisection. A node
    /// holds a handful, so one `Vec` is smaller than a B-tree leaf sized
    /// for eleven, and every walk meets the guests in id order.
    guests: Vec<GuestVm>,
    reserved: ResourceVector,
}

impl Hypervisor {
    /// A hypervisor managing a node of the given capacity.
    pub fn new(capacity: ResourceVector) -> Self {
        Hypervisor {
            capacity,
            guests: Vec::new(),
            reserved: ResourceVector::ZERO,
        }
    }

    /// Node capacity.
    pub fn capacity(&self) -> ResourceVector {
        self.capacity
    }

    /// Sum of resident reservations.
    pub fn reserved(&self) -> ResourceVector {
        self.reserved
    }

    /// `id`'s position among the guests: `Ok` where it is resident, `Err`
    /// where it would be inserted.
    fn slot(&self, id: VmId) -> Result<usize, usize> {
        self.guests.binary_search_by_key(&id, |g| g.spec.id)
    }

    /// Capacity not yet reserved.
    pub fn free(&self) -> ResourceVector {
        self.capacity.saturating_sub(&self.reserved)
    }

    /// Number of resident guests.
    pub fn guest_count(&self) -> usize {
        self.guests.len()
    }

    /// True when no guests are resident — the precondition for the energy
    /// manager to suspend the node.
    pub fn is_idle(&self) -> bool {
        self.guests.is_empty()
    }

    /// Admit a guest. Reservation-based: fails if the sum of reservations
    /// would exceed capacity in any dimension.
    pub fn admit(
        &mut self,
        spec: VmSpec,
        workload: VmWorkload,
        now: SimTime,
    ) -> Result<(), AdmitError> {
        let Err(at) = self.slot(spec.id) else {
            return Err(AdmitError::DuplicateVm);
        };
        if !(self.reserved + spec.requested).fits_within(&self.capacity) {
            return Err(AdmitError::InsufficientCapacity);
        }
        self.reserved += spec.requested;
        self.guests.insert(
            at,
            GuestVm {
                spec,
                workload,
                state: VmState::Running,
                admitted_at: now,
            },
        );
        debug_assert_eq!(self.conservation_fault(), None, "after admit");
        Ok(())
    }

    /// Remove a guest (migration source side, termination, or crash
    /// cleanup). Returns the removed guest, if present.
    pub fn remove(&mut self, id: VmId) -> Option<GuestVm> {
        let guest = self.guests.remove(self.slot(id).ok()?);
        self.reserved = self.reserved.saturating_sub(&guest.spec.requested);
        debug_assert_eq!(self.conservation_fault(), None, "after remove");
        Some(guest)
    }

    /// Remove every guest, in `VmId` order (node crash: "in the event of
    /// a LC failure, VMs are also terminated", §II-E).
    pub fn clear(&mut self) -> Vec<GuestVm> {
        self.reserved = ResourceVector::ZERO;
        let evicted = std::mem::take(&mut self.guests);
        debug_assert_eq!(self.conservation_fault(), None, "after clear");
        evicted
    }

    /// Look up a guest.
    pub fn guest(&self, id: VmId) -> Option<&GuestVm> {
        self.slot(id).ok().map(|at| &self.guests[at])
    }

    /// Mutable access to a guest (e.g. to flip its state to Migrating).
    pub fn guest_mut(&mut self, id: VmId) -> Option<&mut GuestVm> {
        let at = self.slot(id).ok()?;
        Some(&mut self.guests[at])
    }

    /// Iterate guests in `VmId` order (deterministic).
    pub fn guests(&self) -> impl Iterator<Item = &GuestVm> {
        self.guests.iter()
    }

    /// The reservation condition this hypervisor breaks, if any:
    /// `reserved-within-capacity` when `reserved` is invalid or exceeds
    /// capacity, `reservation-conservation` when it differs from the sum
    /// of resident guests' reservations beyond float round-off. Resources
    /// are conserved, never minted or leaked: every mutation
    /// debug-asserts `None`, and `snooze::invariants` checks every alive
    /// LC's hypervisor.
    pub fn conservation_fault(&self) -> Option<&'static str> {
        if !(self.reserved.is_valid() && self.reserved.fits_within(&self.capacity)) {
            return Some("reserved-within-capacity");
        }
        let sum = (self.guests.iter()).fold(ResourceVector::ZERO, |acc, g| acc + g.spec.requested);
        // Symmetric L1 distance: tolerate only float round-off.
        let drift =
            sum.saturating_sub(&self.reserved).l1() + self.reserved.saturating_sub(&sum).l1();
        (drift >= 1e-9).then_some("reservation-conservation")
    }

    /// Every guest's demanded usage at `t`, in `VmId` order — the one
    /// sample a monitoring beat takes. Summed in this order it *is*
    /// [`Hypervisor::demand_at`], bit for bit, so a caller that needs the
    /// per-guest figures and the aggregate evaluates each workload once.
    pub fn usage_at(&self, t: SimTime) -> impl Iterator<Item = (&GuestVm, ResourceVector)> {
        self.guests
            .iter()
            .map(move |g| (g, g.workload.usage_at(t, &g.spec.requested)))
    }

    /// Aggregate *demanded* usage at `t` (may exceed capacity — that's an
    /// overload).
    pub fn demand_at(&self, t: SimTime) -> ResourceVector {
        self.usage_at(t).map(|(_, used)| used).sum()
    }

    /// Fraction of demanded work actually delivered at `t`, in `(0, 1]`.
    /// 1.0 means no contention. This is the "application performance"
    /// signal the fault-tolerance experiment (E6) monitors.
    pub fn performance_at(&self, t: SimTime) -> f64 {
        let demand = self.demand_at(t);
        let mut worst: f64 = 1.0;
        for d in 0..DIMS {
            let dem = demand.get(d);
            let cap = self.capacity.get(d);
            if dem > cap && dem > 0.0 {
                worst = worst.min(cap / dem);
            }
        }
        worst
    }

    /// Per-dimension utilization of capacity by `demand` (can exceed 1.0
    /// under overload).
    pub fn utilization_of(&self, demand: &ResourceVector) -> ResourceVector {
        demand.normalize_by(&self.capacity)
    }

    /// True when `demand` exceeds `threshold` (fraction of capacity) in
    /// any dimension. The LC reports this to its GM as an overload anomaly.
    pub fn is_overloaded_by(&self, demand: &ResourceVector, threshold: f64) -> bool {
        let u = self.utilization_of(demand);
        (0..DIMS).any(|d| u.get(d) > threshold)
    }

    /// True when the node hosts guests but `demand` is below `threshold`
    /// in every dimension — an underload anomaly, a candidate for draining.
    pub fn is_underloaded_by(&self, demand: &ResourceVector, threshold: f64) -> bool {
        if self.guests.is_empty() {
            return false;
        }
        let u = self.utilization_of(demand);
        (0..DIMS).all(|d| u.get(d) < threshold)
    }
}

impl McState for GuestVm {
    fn mc_fold(&self, h: &mut McHasher) {
        self.spec.mc_fold(h);
        self.workload.mc_fold(h);
        self.state.mc_fold(h);
        h.time(self.admitted_at);
    }
}

impl McState for Hypervisor {
    fn mc_fold(&self, h: &mut McHasher) {
        self.capacity.mc_fold(h);
        self.reserved.mc_fold(h);
        h.word(self.guests.len() as u64);
        for g in &self.guests {
            g.mc_fold(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::workload::UsageShape;

    fn cap() -> ResourceVector {
        ResourceVector::new(8.0, 32_768.0, 1000.0, 1000.0)
    }

    fn spec(id: u64, cores: f64, mem: f64) -> VmSpec {
        VmSpec::new(VmId(id), ResourceVector::new(cores, mem, 100.0, 100.0))
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn admission_respects_capacity() {
        let mut h = Hypervisor::new(cap());
        assert!(h
            .admit(spec(1, 4.0, 16_000.0), VmWorkload::flat_full(1), t0())
            .is_ok());
        assert!(h
            .admit(spec(2, 4.0, 16_000.0), VmWorkload::flat_full(2), t0())
            .is_ok());
        // Third VM would oversubscribe CPU.
        assert_eq!(
            h.admit(spec(3, 1.0, 100.0), VmWorkload::flat_full(3), t0()),
            Err(AdmitError::InsufficientCapacity)
        );
        assert_eq!(h.guest_count(), 2);
        assert_eq!(h.reserved().cpu, 8.0);
        assert_eq!(h.free().cpu, 0.0);
    }

    #[test]
    fn duplicate_admission_rejected() {
        let mut h = Hypervisor::new(cap());
        h.admit(spec(1, 1.0, 1000.0), VmWorkload::flat_full(1), t0())
            .unwrap();
        assert_eq!(
            h.admit(spec(1, 1.0, 1000.0), VmWorkload::flat_full(1), t0()),
            Err(AdmitError::DuplicateVm)
        );
    }

    #[test]
    fn remove_releases_reservation() {
        let mut h = Hypervisor::new(cap());
        h.admit(spec(1, 4.0, 16_000.0), VmWorkload::flat_full(1), t0())
            .unwrap();
        let g = h.remove(VmId(1)).unwrap();
        assert_eq!(g.spec.id, VmId(1));
        assert_eq!(h.reserved(), ResourceVector::ZERO);
        assert!(h.is_idle());
        assert!(h.remove(VmId(1)).is_none());
    }

    #[test]
    fn clear_evicts_everything() {
        let mut h = Hypervisor::new(cap());
        h.admit(spec(1, 1.0, 1000.0), VmWorkload::flat_full(1), t0())
            .unwrap();
        h.admit(spec(2, 1.0, 1000.0), VmWorkload::flat_full(2), t0())
            .unwrap();
        let evicted = h.clear();
        assert_eq!(evicted.len(), 2);
        assert!(h.is_idle());
        assert_eq!(h.reserved(), ResourceVector::ZERO);
    }

    #[test]
    fn conservation_fault_names_a_corrupted_reservation() {
        let mut h = Hypervisor::new(cap());
        h.admit(spec(1, 2.0, 1000.0), VmWorkload::flat_full(1), t0())
            .unwrap();
        assert_eq!(h.conservation_fault(), None);
        // A reservation that leaked one core: still within capacity, but
        // no longer the sum of the guests'.
        h.reserved += ResourceVector::new(1.0, 0.0, 0.0, 0.0);
        assert_eq!(h.conservation_fault(), Some("reservation-conservation"));
        // One past capacity is named before the sum is taken.
        h.reserved = cap() + ResourceVector::new(1.0, 0.0, 0.0, 0.0);
        assert_eq!(h.conservation_fault(), Some("reserved-within-capacity"));
    }

    #[test]
    fn demand_aggregates_workloads() {
        let mut h = Hypervisor::new(cap());
        let half = VmWorkload {
            cpu: UsageShape::Constant(0.5),
            memory: UsageShape::Constant(0.5),
            network: UsageShape::Constant(0.5),
            seed: 1,
        };
        h.admit(spec(1, 4.0, 8000.0), half.clone(), t0()).unwrap();
        h.admit(spec(2, 2.0, 4000.0), half, t0()).unwrap();
        let d = h.demand_at(t0());
        assert!((d.cpu - 3.0).abs() < 1e-9);
        assert!((d.memory - 6000.0).abs() < 1e-9);
    }

    #[test]
    fn per_guest_sample_sums_to_the_demand_bit_for_bit() {
        use snooze_simcore::time::SimSpan;
        // Six guests of uneven sizes mixing flat, sinusoidal and stepped
        // demand: sums whose bits depend on the order of addition.
        let diurnal = |phase: f64| UsageShape::diurnal(0.13, 0.87, SimSpan::from_secs(3600), phase);
        let steps = |a: f64, b: f64| {
            let points = vec![
                (SimTime::ZERO, a),
                (SimTime::from_secs(700), b),
                (SimTime::from_secs(2900), a / 3.0),
            ];
            UsageShape::piecewise(points).unwrap()
        };
        let shapes = [
            UsageShape::Constant(0.31),
            diurnal(0.0),
            steps(0.9, 0.17),
            diurnal(0.37),
            UsageShape::Constant(0.77),
            steps(0.21, 0.63),
        ];
        let mut h = Hypervisor::new(cap());
        for (i, cpu) in shapes.into_iter().enumerate() {
            let id = i as u64 + 1;
            let workload = VmWorkload {
                cpu,
                memory: UsageShape::Constant(0.1 * id as f64),
                network: diurnal(0.11 * id as f64),
                seed: id,
            };
            h.admit(spec(id, 0.3 * id as f64, 700.0 * id as f64), workload, t0())
                .unwrap();
        }
        for secs in [0, 1234, 3000] {
            let t = SimTime::from_secs(secs);
            let sample: Vec<(VmId, ResourceVector)> =
                h.usage_at(t).map(|(g, used)| (g.spec.id, used)).collect();
            let ids: Vec<u64> = sample.iter().map(|(id, _)| id.0).collect();
            assert_eq!(ids, [1, 2, 3, 4, 5, 6], "VmId order");
            let summed: ResourceVector = sample.iter().map(|(_, used)| *used).sum();
            let demand = h.demand_at(t);
            for d in 0..DIMS {
                assert_eq!(summed.get(d).to_bits(), demand.get(d).to_bits());
            }
        }
    }

    #[test]
    fn performance_degrades_only_under_overload() {
        // Two VMs each demanding 3 cores on an 8-core node: fine.
        let mut h = Hypervisor::new(cap());
        h.admit(spec(1, 3.0, 1000.0), VmWorkload::flat_full(1), t0())
            .unwrap();
        h.admit(spec(2, 3.0, 1000.0), VmWorkload::flat_full(2), t0())
            .unwrap();
        assert_eq!(h.performance_at(t0()), 1.0);
        assert!(!h.is_overloaded_by(&h.demand_at(t0()), 0.9));

        // Reservation-based admission prevents true demand overload, so
        // emulate a smaller node to observe throttling.
        let mut tiny = Hypervisor::new(ResourceVector::new(4.0, 32_768.0, 1000.0, 1000.0));
        tiny.admit(spec(1, 2.0, 1000.0), VmWorkload::flat_full(1), t0())
            .unwrap();
        tiny.admit(spec(2, 2.0, 1000.0), VmWorkload::flat_full(2), t0())
            .unwrap();
        assert_eq!(tiny.performance_at(t0()), 1.0);
        // Shrink capacity out from under it (as if a core were lost):
        tiny.capacity = ResourceVector::new(2.0, 32_768.0, 1000.0, 1000.0);
        assert!((tiny.performance_at(t0()) - 0.5).abs() < 1e-9);
        assert!(tiny.is_overloaded_by(&tiny.demand_at(t0()), 0.9));
    }

    #[test]
    fn underload_detection() {
        let mut h = Hypervisor::new(cap());
        assert!(
            !h.is_underloaded_by(&h.demand_at(t0()), 0.2),
            "empty node is idle, not underloaded"
        );
        let light = VmWorkload {
            cpu: UsageShape::Constant(0.1),
            memory: UsageShape::Constant(0.1),
            network: UsageShape::Constant(0.1),
            seed: 1,
        };
        h.admit(spec(1, 1.0, 1000.0), light, t0()).unwrap();
        let demand = h.demand_at(t0());
        assert!(h.is_underloaded_by(&demand, 0.2));
        assert!(!h.is_underloaded_by(&demand, 0.001));
    }

    #[test]
    fn a_guest_is_120_bytes() {
        assert_eq!(std::mem::size_of::<GuestVm>(), 120, "GuestVm");
    }

    /// One step of a random program over VM ids `0..24`.
    #[derive(Clone, Debug)]
    enum Op {
        Admit(u64, u8),
        Remove(u64),
        Migrate(u64),
        Get(u64),
        Clear,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0..16u8, 0..24u64, 1..4u8).prop_map(|(kind, id, cores)| match kind {
            0..=7 => Op::Admit(id, cores),
            8..=10 => Op::Remove(id),
            11..=12 => Op::Migrate(id),
            13..=14 => Op::Get(id),
            _ => Op::Clear,
        })
    }

    /// What a test can compare of a guest: everything but its workload.
    fn seen(g: &GuestVm) -> (VmSpec, VmState, SimTime) {
        (g.spec, g.state, g.admitted_at)
    }

    proptest! {
        /// The flat guest table admits, refuses, removes, mutates, clears
        /// and walks exactly as a `BTreeMap` keyed by id with the same
        /// reservation arithmetic, whole-core sizes keeping the capacity
        /// check exact.
        #[test]
        fn guest_table_matches_a_btree_map(
            program in prop::collection::vec(op_strategy(), 1..200)
        ) {
            let mut h = Hypervisor::new(cap());
            let mut map: BTreeMap<VmId, GuestVm> = BTreeMap::new();
            let mut reserved = ResourceVector::ZERO;
            for (step, op) in program.into_iter().enumerate() {
                let now = SimTime::from_secs(step as u64);
                match op {
                    Op::Admit(id, cores) => {
                        let spec = spec(id, f64::from(cores), 1000.0);
                        let fits = (reserved + spec.requested).fits_within(&cap());
                        let want = match map.entry(spec.id) {
                            Entry::Occupied(_) => Err(AdmitError::DuplicateVm),
                            Entry::Vacant(_) if !fits => Err(AdmitError::InsufficientCapacity),
                            Entry::Vacant(slot) => {
                                reserved += spec.requested;
                                slot.insert(GuestVm {
                                    spec,
                                    workload: VmWorkload::flat_full(id),
                                    state: VmState::Running,
                                    admitted_at: now,
                                });
                                Ok(())
                            }
                        };
                        prop_assert_eq!(h.admit(spec, VmWorkload::flat_full(id), now), want);
                    }
                    Op::Remove(id) => {
                        let want = map.remove(&VmId(id));
                        if let Some(g) = &want {
                            reserved = reserved.saturating_sub(&g.spec.requested);
                        }
                        let got = h.remove(VmId(id));
                        prop_assert_eq!(got.as_ref().map(seen), want.as_ref().map(seen));
                    }
                    Op::Migrate(id) => {
                        let (got, want) = (h.guest_mut(VmId(id)), map.get_mut(&VmId(id)));
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(got), Some(want)) = (got, want) {
                            got.state = VmState::Migrating;
                            want.state = VmState::Migrating;
                        }
                    }
                    Op::Get(id) => {
                        prop_assert_eq!(h.guest(VmId(id)).map(seen), map.get(&VmId(id)).map(seen));
                    }
                    Op::Clear => {
                        let evicted: Vec<_> = h.clear().iter().map(seen).collect();
                        let want: Vec<_> = std::mem::take(&mut map).values().map(seen).collect();
                        reserved = ResourceVector::ZERO;
                        prop_assert_eq!(evicted, want);
                    }
                }
                prop_assert_eq!(h.guest_count(), map.len());
                prop_assert_eq!(h.is_idle(), map.is_empty());
                prop_assert_eq!(h.reserved(), reserved);
                let walk: Vec<_> = h.guests().map(seen).collect();
                let want: Vec<_> = map.values().map(seen).collect();
                prop_assert_eq!(walk, want);
            }
        }
    }
}
