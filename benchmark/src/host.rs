//! How fast the host is running right now.
//!
//! The benchmark runs on a few cores of a shared machine whose speed
//! moves in steps: the same single-threaded iteration takes 0.9 s in one
//! half-minute and 1.5 s in the next, with no steal time reported to the
//! guest. A median over a run does not remove that (a run sits on one
//! or two steps), so host time is reported at a reference speed instead:
//! a fixed loop is timed before and after every iteration and the
//! iteration's seconds are divided by how much slower than
//! [`REFERENCE_PROBE_S`] that loop ran. The loop lives here, outside the
//! code under measurement, so a change to the simulator moves `wall_s`
//! and not the probe. Raw seconds and the slowdown itself are kept as
//! the per-layer metrics `bench.raw_wall_s` and `bench.host_slowdown`.

use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Seconds one [`Probe::run`] usually takes on the reference box (2 vCPUs
/// of a Xeon @ 2.10 GHz under Firecracker; 0.065 s in its fastest step,
/// 0.12 s in its slowest). Only a unit conversion: it makes seconds at
/// the reference speed read like that box's usual seconds.
pub const REFERENCE_PROBE_S: f64 = 0.080;

/// Steps per phase of one probe.
const STEPS: u64 = 250_000;

/// A binary heap, an ordered map and a float array driven by one
/// generator: the queue / registry / sampling mix of the simulator, first
/// on a working set that stays in cache and then on one that does not,
/// because a busy neighbour slows the two by different amounts.
struct Phase {
    heap: BinaryHeap<u64>,
    heap_cap: usize,
    map: BTreeMap<u64, u64>,
    key_mask: u64,
    cells: Vec<f64>,
}

impl Phase {
    fn new(heap_cap: usize, key_mask: u64, cells: usize) -> Phase {
        Phase {
            heap: BinaryHeap::with_capacity(heap_cap + 1),
            heap_cap,
            map: BTreeMap::new(),
            key_mask,
            cells: vec![0.0; cells],
        }
    }

    fn run(&mut self, x: &mut u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..STEPS {
            *x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.heap.push(*x >> 20);
            if self.heap.len() > self.heap_cap {
                acc ^= self.heap.pop().unwrap_or(0);
            }
            let key = (*x >> 40) & self.key_mask;
            *self.map.entry(key).or_insert(0) += i;
            let cell = (*x >> 30) as usize % self.cells.len();
            self.cells[cell] = self.cells[cell] * 0.999 + key as f64;
            acc = (acc ^ key).wrapping_mul(0x100_0000_01b3);
        }
        acc
    }
}

pub struct Probe {
    x: u64,
    in_cache: Phase,
    out_of_cache: Phase,
}

impl Probe {
    /// Buffers are allocated and touched here, once per process, so no
    /// timed run pays for page faults.
    pub fn new() -> Probe {
        let mut probe = Probe {
            x: 0x9E37_79B9_7F4A_7C15,
            in_cache: Phase::new(2048, 0xFFF, 4096),
            out_of_cache: Phase::new(16384, 0xFFFF, 1 << 18),
        };
        // Twice: the larger map is still filling during the first.
        probe.run();
        probe.run();
        probe
    }

    /// Seconds the fixed loop takes now.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let a = self.in_cache.run(&mut self.x);
        let b = self.out_of_cache.run(&mut self.x);
        std::hint::black_box(a ^ b);
        start.elapsed().as_secs_f64()
    }
}

/// What the clock read for one iteration and how slow the host was
/// around it.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Mean of the probes before and after, over [`REFERENCE_PROBE_S`].
    pub slowdown: f64,
}

impl Timing {
    pub fn new(setup_s: f64, wall_s: f64, probe_before_s: f64, probe_after_s: f64) -> Timing {
        Timing {
            setup_s,
            wall_s,
            slowdown: (probe_before_s + probe_after_s) / 2.0 / REFERENCE_PROBE_S,
        }
    }

    /// Set-up seconds at the reference speed.
    pub fn setup_at_reference_s(&self) -> f64 {
        self.setup_s / self.slowdown
    }

    /// Body seconds at the reference speed.
    pub fn wall_at_reference_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_running_half_as_fast_halves_the_seconds() {
        let t = Timing::new(0.2, 3.0, 2.0 * REFERENCE_PROBE_S, 2.0 * REFERENCE_PROBE_S);
        assert_eq!(t.slowdown, 2.0);
        assert_eq!(t.setup_at_reference_s(), 0.1);
        assert_eq!(t.wall_at_reference_s(), 1.5);
        // A step between the two probes is split evenly.
        let t = Timing::new(0.0, 3.0, REFERENCE_PROBE_S, 2.0 * REFERENCE_PROBE_S);
        assert_eq!(t.wall_at_reference_s(), 2.0);
    }

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        let mut p = Probe::new();
        let before = (p.in_cache.heap.len(), p.out_of_cache.heap.len());
        assert!(p.run() > 0.0);
        assert_eq!(before, (p.in_cache.heap.len(), p.out_of_cache.heap.len()));
        assert_eq!(before, (2048, 16384));
    }
}
