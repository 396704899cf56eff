//! Advisory wall-clock measurement.
//!
//! Simulated history must never depend on the host's clock — the
//! determinism lint bans `Instant::now` on the whole simulation path.
//! But the harness still wants to *report* how long a run or an
//! algorithm phase took on the host (the "wall ms" columns, the ACO
//! phase profile). [`WallClock`] is the single sanctioned entry point
//! for that: a stopwatch whose readings are advisory — they may be
//! printed, but must never be folded into digests, exports, or any
//! decision the simulation makes.

/// An advisory stopwatch over the host's monotonic clock.
///
/// Readings are host-dependent by construction; callers must only use
/// them for human-facing reporting (and should label the columns so:
/// "wall ms", "advisory").
#[derive(Clone, Copy, Debug)]
pub struct WallClock(std::time::Instant);

impl WallClock {
    /// Start a stopwatch now.
    pub fn start() -> Self {
        // The one sanctioned wall-clock read on the simulation path.
        WallClock(std::time::Instant::now()) // audit-allow(wall-clock): the single advisory stopwatch entry point; readings are never folded into digests or exports
    }

    /// Milliseconds elapsed since [`WallClock::start`], as a float.
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }

    /// Whole nanoseconds elapsed since [`WallClock::start`].
    pub fn elapsed_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let w = WallClock::start();
        let a = w.elapsed_nanos();
        let b = w.elapsed_nanos();
        assert!(b >= a);
        assert!(w.elapsed_ms() >= 0.0);
    }
}
