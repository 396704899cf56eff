//! The flat failure detector against the `BTreeMap` detector it replaced.
//!
//! `FailureDetector` keeps one `(peer, last heard)` row per peer in a
//! sorted `Vec`. The reference below is the map-backed original, kept
//! verbatim as an oracle: random programs of `heard`, `forget`, `expire`
//! and `reset` on a clock that advances in whole seconds (so a peer
//! silent for exactly the timeout comes up often) must give the same
//! join flags, the same expiry batches in the same key order, the same
//! `len` and the same model-checker fold after every step.

use std::collections::BTreeMap;

use proptest::prelude::*;
use snooze_protocols::heartbeat::FailureDetector;
use snooze_simcore::mc::{McHasher, McState};
use snooze_simcore::time::{SimSpan, SimTime};

/// The detector as it was: peers in a `BTreeMap`.
struct Reference {
    timeout: SimSpan,
    last_heard: BTreeMap<u32, SimTime>,
}

impl Reference {
    fn new(timeout: SimSpan) -> Self {
        Reference {
            timeout,
            last_heard: BTreeMap::new(),
        }
    }

    fn heard(&mut self, peer: u32, now: SimTime) -> bool {
        self.last_heard.insert(peer, now).is_none()
    }

    fn forget(&mut self, peer: u32) {
        self.last_heard.remove(&peer);
    }

    fn expire(&mut self, now: SimTime) -> Vec<u32> {
        let timeout = self.timeout;
        let dead: Vec<u32> = self
            .last_heard
            .iter()
            .filter(|(_, &t)| now.since(t) > timeout)
            .map(|(k, _)| *k)
            .collect();
        for k in &dead {
            self.last_heard.remove(k);
        }
        dead
    }

    fn reset(&mut self) {
        self.last_heard.clear();
    }

    fn mc_fold(&self, h: &mut McHasher) {
        h.span(self.timeout);
        h.word(self.last_heard.len() as u64);
        for (&peer, &t) in &self.last_heard {
            h.word(peer.into());
            h.time(t);
        }
    }
}

/// One step of a program; the clock advances by the step's whole seconds
/// before it runs.
#[derive(Clone, Debug)]
enum Op {
    Heard(u32),
    Forget(u32),
    Expire,
    Reset,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Heartbeats are the common step and a reset the rare one, so the
    // detector holds a dozen peers or so between resets.
    (0..16u8, 0..24u32).prop_map(|(kind, peer)| match kind {
        0..=8 => Op::Heard(peer),
        9..=10 => Op::Forget(peer),
        11..=14 => Op::Expire,
        _ => Op::Reset,
    })
}

fn fold(now: SimTime, f: impl FnOnce(&mut McHasher)) -> u64 {
    let mut h = McHasher::new(now);
    f(&mut h);
    h.finish()
}

proptest! {
    #[test]
    fn flat_detector_matches_the_map_detector(
        timeout_s in 1..6u64,
        program in prop::collection::vec((0..4u64, op_strategy()), 1..160),
    ) {
        let timeout = SimSpan::from_secs(timeout_s);
        let mut flat: FailureDetector<u32> = FailureDetector::new(timeout);
        let mut reference = Reference::new(timeout);
        let mut now_s = 0;
        for (step, (advance_s, op)) in program.into_iter().enumerate() {
            now_s += advance_s;
            let now = SimTime::from_secs(now_s);
            match op {
                Op::Heard(peer) => prop_assert_eq!(
                    flat.heard(peer, now),
                    reference.heard(peer, now),
                    "join flag of peer {} at step {}", peer, step
                ),
                Op::Forget(peer) => {
                    flat.forget(peer);
                    reference.forget(peer);
                }
                Op::Expire => prop_assert_eq!(
                    flat.expire(now),
                    reference.expire(now),
                    "expiry batch at step {}", step
                ),
                Op::Reset => {
                    flat.reset();
                    reference.reset();
                }
            }
            prop_assert_eq!(flat.len(), reference.last_heard.len());
            prop_assert_eq!(flat.is_empty(), reference.last_heard.is_empty());
            prop_assert_eq!(
                fold(now, |h| flat.mc_fold(h)),
                fold(now, |h| reference.mc_fold(h)),
                "mc_fold words at step {}", step
            );
        }
    }
}
