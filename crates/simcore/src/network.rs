//! Simulated network: latency, loss, isolation, multicast groups.
//!
//! Snooze's protocols (heartbeat multicast, REST-style request/response,
//! monitoring uploads) all ride on a data-center LAN. The network model
//! here captures what those protocols are sensitive to — delivery latency,
//! loss, and reachability — without simulating packets: each logical
//! message gets a sampled one-way transit time, or is dropped.
//!
//! Every message also passes a per-pair FIFO clamp, so that table is laid
//! out for the send path: one row per source, indexed by source id, each
//! row a `(dst, last arrival)` list sorted by destination. A sender only
//! ever touches its own row — an LC's holds the two to four peers it
//! talks to, a GM's its LCs in one contiguous array — where a single map
//! over every directed pair would walk a tree of thousands of keys per
//! message.

use std::collections::BTreeSet;

use crate::engine::{ComponentId, GroupId};
use crate::rng::SimRng;
use crate::time::{SimSpan, SimTime};

/// One-way transit latency, uniformly jittered in `[lo, hi)`. With
/// `lo >= hi` every message takes exactly `lo` and no random value is
/// drawn.
#[derive(Clone, Copy, Debug)]
pub struct UniformLatency {
    /// Minimum one-way latency.
    pub lo: SimSpan,
    /// Maximum (exclusive) one-way latency.
    pub hi: SimSpan,
}

impl UniformLatency {
    fn sample(&self, rng: &mut SimRng) -> SimSpan {
        rng.span_between(self.lo, self.hi)
    }
}

/// Network configuration handed to [`crate::engine::SimBuilder`].
pub struct NetworkConfig {
    /// Transit latency of every message.
    pub latency: UniformLatency,
    /// Independent per-message loss probability in `[0, 1]`.
    pub loss_rate: f64,
}

impl NetworkConfig {
    /// A typical data-center LAN: 100–500 µs one-way, no loss.
    pub fn lan() -> Self {
        NetworkConfig {
            latency: UniformLatency {
                lo: SimSpan::from_micros(100),
                hi: SimSpan::from_micros(500),
            },
            loss_rate: 0.0,
        }
    }

    /// A LAN with a given message-loss probability.
    pub fn lossy_lan(loss_rate: f64) -> Self {
        NetworkConfig {
            loss_rate,
            ..Self::lan()
        }
    }

    /// Zero-latency, lossless network — for unit tests where latency is noise.
    pub fn instant() -> Self {
        NetworkConfig {
            latency: UniformLatency {
                lo: SimSpan::ZERO,
                hi: SimSpan::ZERO,
            },
            loss_rate: 0.0,
        }
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self::lan()
    }
}

/// Live network state owned by the engine. The mutable parts (group
/// membership, isolation, FIFO clamps) live in ordered collections so
/// snapshots hash and restore deterministically.
pub struct Network {
    config: NetworkConfig,
    groups: Vec<Vec<ComponentId>>,
    /// Components cut off from everyone.
    isolated: BTreeSet<usize>,
    /// Last scheduled arrival per directed `(src, dst)` pair — enforces
    /// per-pair FIFO, matching the TCP connections Snooze's RESTful
    /// services ride on. `last_arrival[src]` is that source's row of
    /// `(dst, arrival)`, sorted by `dst`; rows appear as sources first send.
    last_arrival: Vec<Vec<(usize, SimTime)>>,
}

/// A copy of the network's mutable state — everything except the latency
/// range, which is constant for the lifetime of an engine. Part
/// of the model checker's [`crate::mc::SystemState`] snapshots.
#[derive(Clone, Debug)]
pub struct NetworkState {
    groups: Vec<Vec<ComponentId>>,
    isolated: BTreeSet<usize>,
    last_arrival: Vec<Vec<(usize, SimTime)>>,
    loss_rate: f64,
}

impl Network {
    pub(crate) fn new(config: NetworkConfig) -> Self {
        Network {
            config,
            groups: Vec::new(),
            isolated: BTreeSet::new(),
            last_arrival: Vec::new(),
        }
    }

    /// Capture the mutable state (for snapshot/restore).
    pub(crate) fn save_state(&self) -> NetworkState {
        NetworkState {
            groups: self.groups.clone(),
            isolated: self.isolated.clone(),
            last_arrival: self.last_arrival.clone(),
            loss_rate: self.config.loss_rate,
        }
    }

    /// Restore state captured by [`Network::save_state`].
    pub(crate) fn load_state(&mut self, state: &NetworkState) {
        self.groups.clone_from(&state.groups);
        self.isolated.clone_from(&state.isolated);
        self.last_arrival.clone_from(&state.last_arrival);
        self.config.loss_rate = state.loss_rate;
    }

    /// Fold the behavior-relevant mutable state into an FNV word stream
    /// (group membership and reachability; FIFO clamps are excluded —
    /// they only delay arrivals, and the checker re-times events anyway).
    pub(crate) fn fold_state(&self, mut fold: impl FnMut(u64)) {
        for members in &self.groups {
            fold(members.len() as u64);
            for m in members {
                fold(m.0 as u64);
            }
        }
        for &c in &self.isolated {
            fold(c as u64);
        }
        fold(self.config.loss_rate.to_bits());
    }

    /// Compute the arrival time of a message departing at `departs`, or
    /// `None` if it is lost (random loss or isolation).
    /// Arrival times per directed pair are non-decreasing (FIFO channels).
    pub(crate) fn transit(
        &mut self,
        src: ComponentId,
        dst: ComponentId,
        departs: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimTime> {
        if src != ComponentId::EXTERNAL {
            if self.isolated.contains(&src.0) || self.isolated.contains(&dst.0) {
                return None;
            }
            if self.config.loss_rate > 0.0 && rng.chance(self.config.loss_rate) {
                return None;
            }
        }
        let mut arrival = departs + self.config.latency.sample(rng);
        if src != ComponentId::EXTERNAL {
            if self.last_arrival.len() <= src.0 {
                self.last_arrival.resize_with(src.0 + 1, Vec::new);
            }
            let row = &mut self.last_arrival[src.0];
            let at = row
                .binary_search_by_key(&dst.0, |&(d, _)| d)
                .unwrap_or_else(|at| {
                    row.insert(at, (dst.0, SimTime::ZERO));
                    at
                });
            arrival = arrival.max(row[at].1);
            row[at].1 = arrival;
        }
        Some(arrival)
    }

    /// Create a new, empty multicast group.
    pub fn create_group(&mut self) -> GroupId {
        self.groups.push(Vec::new());
        GroupId(self.groups.len() - 1)
    }

    /// Add `id` to `group` (idempotent).
    pub fn join_group(&mut self, group: GroupId, id: ComponentId) {
        let members = &mut self.groups[group.0];
        if !members.contains(&id) {
            members.push(id);
        }
    }

    /// Remove `id` from `group` (idempotent).
    pub fn leave_group(&mut self, group: GroupId, id: ComponentId) {
        self.groups[group.0].retain(|m| *m != id);
    }

    /// Current members of `group`.
    pub fn group_members(&self, group: GroupId) -> &[ComponentId] {
        self.groups.get(group.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Cut a single component off from the network entirely.
    pub fn isolate(&mut self, id: ComponentId) {
        self.isolated.insert(id.0);
    }

    /// Reconnect an isolated component.
    pub fn reconnect(&mut self, id: ComponentId) {
        self.isolated.remove(&id.0);
    }

    /// Change the loss rate mid-run.
    pub fn set_loss_rate(&mut self, rate: f64) {
        self.config.loss_rate = rate.clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    /// What `transit` computes, with the FIFO clamps in one ordered map
    /// over every directed pair — the layout the per-source rows replaced.
    #[derive(Default)]
    struct Reference {
        isolated: BTreeSet<usize>,
        last_arrival: BTreeMap<(usize, usize), SimTime>,
    }

    /// The latency range on both sides of the differential test.
    const LAN: UniformLatency = UniformLatency {
        lo: SimSpan(100),
        hi: SimSpan(500),
    };

    impl Reference {
        fn transit(
            &mut self,
            src: ComponentId,
            dst: ComponentId,
            departs: SimTime,
            rng: &mut SimRng,
        ) -> Option<SimTime> {
            if src == ComponentId::EXTERNAL {
                return Some(departs + LAN.sample(rng));
            }
            if self.isolated.contains(&src.0) || self.isolated.contains(&dst.0) {
                return None;
            }
            let slot = self
                .last_arrival
                .entry((src.0, dst.0))
                .or_insert(SimTime::ZERO);
            *slot = (departs + LAN.sample(rng)).max(*slot);
            Some(*slot)
        }
    }

    /// A sender: mostly a handful of busy ids, sometimes `EXTERNAL`,
    /// sometimes an id past every row the table has grown so far.
    fn any_src(ops: &mut SimRng) -> ComponentId {
        match ops.range(0, 20) {
            0 => ComponentId::EXTERNAL,
            1 => ComponentId(ops.range(12, 300)),
            _ => ComponentId(ops.range(0, 12)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// 10 000 random sends, isolations and snapshot round trips: the
        /// per-source rows clamp every arrival exactly as one map over
        /// `(src, dst)` does.
        #[test]
        fn fifo_rows_match_a_pair_keyed_map(seed in any::<u64>()) {
            let mut net = Network::new(NetworkConfig {
                latency: LAN,
                loss_rate: 0.0,
            });
            let mut reference = Reference::default();
            // Same stream on both sides, so equal arrivals mean equal
            // draws *and* equal clamps.
            let (mut net_rng, mut ref_rng) = (SimRng::new(seed), SimRng::new(seed));
            let mut ops = SimRng::new(seed ^ 0xF1F0);
            for _ in 0..10_000 {
                match ops.range(0, 100) {
                    0 => {
                        let id = ops.range(0, 12);
                        net.isolate(ComponentId(id));
                        reference.isolated.insert(id);
                    }
                    1..=2 => {
                        let id = ops.range(0, 12);
                        net.reconnect(ComponentId(id));
                        reference.isolated.remove(&id);
                    }
                    3 => {
                        // What the model checker does: capture, wander
                        // off (new rows, moved clamps, an isolation),
                        // restore. The reference never left.
                        let saved = net.save_state();
                        let mut scratch = SimRng::new(ops.range(0, 1 << 30) as u64);
                        for _ in 0..50 {
                            let (src, dst) = (any_src(&mut ops), ComponentId(ops.range(0, 16)));
                            net.transit(src, dst, SimTime(ops.range(0, 1 << 40) as u64), &mut scratch);
                        }
                        net.isolate(ComponentId(ops.range(0, 12)));
                        net.load_state(&saved);
                    }
                    _ => {
                        let (src, dst) = (any_src(&mut ops), ComponentId(ops.range(0, 16)));
                        // Departures wander both ways, so clamps bind.
                        let departs = SimTime(ops.range(0, 5_000) as u64);
                        prop_assert_eq!(
                            net.transit(src, dst, departs, &mut net_rng),
                            reference.transit(src, dst, departs, &mut ref_rng),
                            "{:?} -> {:?} departing {:?}", src, dst, departs
                        );
                    }
                }
            }
        }
    }

    /// `instant()` is a degenerate uniform range, not a constant model of
    /// its own: it must stay constant *and* leave the RNG stream alone,
    /// or every digest of a run on it moves.
    #[test]
    fn instant_is_constant_and_draws_nothing_while_lan_draws() {
        let (a, b) = (ComponentId(0), ComponentId(1));
        let next_after = |config: NetworkConfig| {
            let (mut net, mut r) = (Network::new(config), rng());
            let arrivals = [1, 2, 3].map(|s| net.transit(a, b, SimTime::from_secs(s), &mut r));
            (arrivals, r.f64())
        };
        let (arrivals, next) = next_after(NetworkConfig::instant());
        assert_eq!(arrivals, [1, 2, 3].map(|s| Some(SimTime::from_secs(s))));
        assert_eq!(next, rng().f64(), "instant() drew from the RNG");
        let (_, next) = next_after(NetworkConfig::lan());
        assert_ne!(next, rng().f64(), "lan() no longer jitters");
    }

    #[test]
    fn uniform_latency_within_bounds() {
        let m = UniformLatency {
            lo: SimSpan::from_micros(100),
            hi: SimSpan::from_micros(200),
        };
        let mut r = rng();
        for _ in 0..200 {
            let s = m.sample(&mut r);
            assert!(s >= SimSpan::from_micros(100) && s < SimSpan::from_micros(200));
        }
    }

    #[test]
    fn isolation_blocks_both_directions() {
        let mut net = Network::new(NetworkConfig::instant());
        let mut r = rng();
        let (a, b, c) = (ComponentId(1), ComponentId(2), ComponentId(3));
        net.isolate(a);
        assert!(net.transit(a, b, SimTime::ZERO, &mut r).is_none());
        assert!(net.transit(c, a, SimTime::ZERO, &mut r).is_none());
        assert!(net.transit(b, c, SimTime::ZERO, &mut r).is_some());
        net.reconnect(a);
        assert!(net.transit(a, b, SimTime::ZERO, &mut r).is_some());
    }

    #[test]
    fn loss_rate_drops_roughly_that_fraction() {
        let mut net = Network::new(NetworkConfig::lossy_lan(0.25));
        let mut r = rng();
        let lost = (0..4000)
            .filter(|_| {
                net.transit(ComponentId(0), ComponentId(1), SimTime::ZERO, &mut r)
                    .is_none()
            })
            .count();
        assert!(
            (800..1200).contains(&lost),
            "lost {lost} of 4000, expected ~1000"
        );
    }

    #[test]
    fn external_sender_bypasses_loss_and_partitions() {
        let mut net = Network::new(NetworkConfig::lossy_lan(1.0));
        net.isolate(ComponentId(1));
        let mut r = rng();
        assert!(net
            .transit(ComponentId::EXTERNAL, ComponentId(1), SimTime::ZERO, &mut r)
            .is_some());
    }

    #[test]
    fn group_membership_is_idempotent() {
        let mut net = Network::new(NetworkConfig::instant());
        let g = net.create_group();
        net.join_group(g, ComponentId(5));
        net.join_group(g, ComponentId(5));
        assert_eq!(net.group_members(g), &[ComponentId(5)]);
        net.leave_group(g, ComponentId(5));
        net.leave_group(g, ComponentId(5));
        assert!(net.group_members(g).is_empty());
    }
}
