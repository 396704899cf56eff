//! Heartbeats and timeout-based failure detection.
//!
//! Paper §II-A: "To support failure detection and self-organization,
//! multicast-based heartbeat protocols are implemented at all levels of
//! the hierarchy." Emission is trivial (a periodic timer plus
//! [`snooze_simcore::engine::Ctx::multicast`]); the reusable piece is the
//! receiving side: [`FailureDetector`] tracks the last time each peer was
//! heard from and reports the ones that have gone quiet.

use snooze_simcore::mc::{McHasher, McState};
use snooze_simcore::time::{SimSpan, SimTime};

/// A timeout-based failure detector over peers identified by `K`.
///
/// `K` is whatever the protocol identifies peers by — component ids at
/// the hierarchy levels, node ids at the physical layer. Peers live in
/// one `(peer, last heard)` row per peer, kept sorted by peer, so every
/// iteration order is the key order — no per-process hash randomness can
/// leak into protocol messages or traces — and a GM's heartbeat from any
/// of its thousand LCs is a binary search in one contiguous array, the
/// same row layout as the network's per-pair FIFO clamps.
#[derive(Clone, Debug)]
pub struct FailureDetector<K: Copy + Ord> {
    timeout: SimSpan,
    rows: Vec<(K, SimTime)>,
}

impl<K: Copy + Ord> FailureDetector<K> {
    /// A detector declaring peers failed after `timeout` of silence.
    pub fn new(timeout: SimSpan) -> Self {
        FailureDetector {
            timeout,
            rows: Vec::new(),
        }
    }

    /// The configured timeout.
    pub fn timeout(&self) -> SimSpan {
        self.timeout
    }

    /// Record a heartbeat (or any sign of life) from `peer` at `now`.
    /// Returns `true` if this peer was previously unknown (a join).
    pub fn heard(&mut self, peer: K, now: SimTime) -> bool {
        match self.row_of(peer) {
            Ok(i) => {
                self.rows[i].1 = now;
                false
            }
            Err(i) => {
                self.rows.insert(i, (peer, now));
                true
            }
        }
    }

    /// Stop tracking `peer` (graceful leave or after eviction).
    pub fn forget(&mut self, peer: K) {
        if let Ok(i) = self.row_of(peer) {
            self.rows.remove(i);
        }
    }

    /// Number of tracked peers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no peers are tracked.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Remove and return every peer not heard from within the timeout,
    /// in key order. Call from a periodic timer.
    pub fn expire(&mut self, now: SimTime) -> Vec<K> {
        let timeout = self.timeout;
        let mut dead = Vec::new();
        self.rows.retain(|&(peer, t)| {
            let alive = now.since(t) <= timeout;
            if !alive {
                dead.push(peer);
            }
            alive
        });
        dead
    }

    /// Drop all tracked peers (e.g. when the host component restarts).
    pub fn reset(&mut self) {
        self.rows.clear();
    }

    /// `peer`'s row, or where it would be inserted.
    fn row_of(&self, peer: K) -> Result<usize, usize> {
        self.rows.binary_search_by(|(k, _)| k.cmp(&peer))
    }
}

impl<K: Copy + Ord + Into<u64>> McState for FailureDetector<K> {
    fn mc_fold(&self, h: &mut McHasher) {
        h.span(self.timeout);
        h.word(self.rows.len() as u64);
        for &(peer, t) in &self.rows {
            h.word(peer.into());
            h.time(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn join_is_reported_once() {
        let mut fd: FailureDetector<u32> = FailureDetector::new(SimSpan::from_secs(5));
        assert!(fd.heard(1, t(0)), "first contact is a join");
        assert!(!fd.heard(1, t(1)), "subsequent heartbeats are not");
        assert_eq!(fd.len(), 1);
    }

    #[test]
    fn silence_past_timeout_expires_peer() {
        let mut fd: FailureDetector<u32> = FailureDetector::new(SimSpan::from_secs(5));
        fd.heard(1, t(0));
        fd.heard(2, t(3));
        assert_eq!(
            fd.expire(t(5)),
            Vec::<u32>::new(),
            "exactly at timeout is still alive"
        );
        assert_eq!(fd.expire(t(6)), vec![1]);
        assert_eq!(fd.len(), 1, "2 is still tracked");
        assert_eq!(fd.expire(t(20)), vec![2]);
        assert!(fd.is_empty());
    }

    #[test]
    fn heartbeats_keep_peers_alive() {
        let mut fd: FailureDetector<u32> = FailureDetector::new(SimSpan::from_secs(5));
        fd.heard(1, t(0));
        for s in 1..20 {
            fd.heard(1, t(s));
            assert!(fd.expire(t(s + 1)).is_empty());
        }
    }

    #[test]
    fn expire_returns_sorted_batch() {
        let mut fd: FailureDetector<u32> = FailureDetector::new(SimSpan::from_secs(1));
        for k in [5u32, 1, 9, 3] {
            fd.heard(k, t(0));
        }
        assert_eq!(fd.expire(t(10)), vec![1, 3, 5, 9]);
    }

    #[test]
    fn forget_and_reset() {
        let mut fd: FailureDetector<u32> = FailureDetector::new(SimSpan::from_secs(5));
        fd.heard(1, t(0));
        fd.heard(2, t(0));
        fd.forget(1);
        assert!(fd.heard(1, t(1)), "a forgotten peer joins anew");
        fd.reset();
        assert!(fd.is_empty());
    }
}
