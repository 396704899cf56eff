//! Resource demand estimation (paper §II-B).
//!
//! GMs turn the stream of per-VM usage samples from their LCs into a
//! demand estimate used for scheduling. Three classic estimators are
//! provided: the last observation, an exponentially weighted moving
//! average, and the maximum over a sliding window (conservative —
//! over-provisions to the recent peak).

use std::collections::VecDeque;

use snooze_cluster::resources::ResourceVector;
use snooze_simcore::mc::{McHasher, McState};

/// Which estimator GMs use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EstimatorKind {
    /// Use the most recent sample as-is.
    LastValue,
    /// Exponentially weighted moving average with smoothing `alpha` in
    /// `(0, 1]` (1 degenerates to `LastValue`).
    Ewma {
        /// Smoothing factor.
        alpha: f64,
    },
    /// Per-dimension maximum over the last `window` samples.
    WindowMax {
        /// Window length in samples.
        window: usize,
    },
}

/// Streaming demand estimator for one VM (or one aggregate).
#[derive(Clone, Debug)]
pub struct DemandEstimator {
    kind: EstimatorKind,
    estimate: ResourceVector,
    history: VecDeque<ResourceVector>,
    samples: u64,
}

impl DemandEstimator {
    /// A fresh estimator of the given kind.
    pub fn new(kind: EstimatorKind) -> Self {
        if let EstimatorKind::Ewma { alpha } = kind {
            assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
        }
        if let EstimatorKind::WindowMax { window } = kind {
            assert!(window > 0, "window must be positive");
        }
        DemandEstimator {
            kind,
            estimate: ResourceVector::ZERO,
            history: VecDeque::new(),
            samples: 0,
        }
    }

    /// Feed one observation.
    pub fn observe(&mut self, usage: ResourceVector) {
        self.samples += 1;
        match self.kind {
            EstimatorKind::LastValue => self.estimate = usage,
            EstimatorKind::Ewma { alpha } => {
                if self.samples == 1 {
                    self.estimate = usage;
                } else {
                    self.estimate = usage * alpha + self.estimate * (1.0 - alpha);
                }
            }
            EstimatorKind::WindowMax { window } => {
                self.history.push_back(usage);
                while self.history.len() > window {
                    self.history.pop_front();
                }
                self.estimate = self
                    .history
                    .iter()
                    .fold(ResourceVector::ZERO, |acc, v| acc.max(v));
            }
        }
    }

    /// Current estimate (zero before any sample).
    pub fn estimate(&self) -> ResourceVector {
        self.estimate
    }
}

impl McState for DemandEstimator {
    fn mc_fold(&self, h: &mut McHasher) {
        match self.kind {
            EstimatorKind::LastValue => h.word(1),
            EstimatorKind::Ewma { alpha } => {
                h.word(2);
                h.float(alpha);
            }
            EstimatorKind::WindowMax { window } => {
                h.word(3);
                h.word(window as u64);
            }
        }
        self.estimate.mc_fold(h);
        h.word(self.history.len() as u64);
        for v in &self.history {
            v.mc_fold(h);
        }
        h.word(self.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f64) -> ResourceVector {
        ResourceVector::splat(x)
    }

    #[test]
    fn last_value_tracks_immediately() {
        let mut e = DemandEstimator::new(EstimatorKind::LastValue);
        assert_eq!(e.estimate(), ResourceVector::ZERO);
        e.observe(v(0.5));
        assert_eq!(e.estimate(), v(0.5));
        e.observe(v(0.1));
        assert_eq!(e.estimate(), v(0.1));
    }

    #[test]
    fn ewma_smooths_and_seeds_from_first_sample() {
        let mut e = DemandEstimator::new(EstimatorKind::Ewma { alpha: 0.5 });
        e.observe(v(1.0));
        assert_eq!(e.estimate(), v(1.0), "first sample seeds the average");
        e.observe(v(0.0));
        assert_eq!(e.estimate(), v(0.5));
        e.observe(v(0.0));
        assert_eq!(e.estimate(), v(0.25));
    }

    #[test]
    fn ewma_alpha_one_is_last_value() {
        let mut e = DemandEstimator::new(EstimatorKind::Ewma { alpha: 1.0 });
        e.observe(v(0.9));
        e.observe(v(0.2));
        assert_eq!(e.estimate(), v(0.2));
    }

    #[test]
    #[should_panic]
    fn ewma_rejects_zero_alpha() {
        let _ = DemandEstimator::new(EstimatorKind::Ewma { alpha: 0.0 });
    }

    #[test]
    fn window_max_holds_peak_then_forgets() {
        let mut e = DemandEstimator::new(EstimatorKind::WindowMax { window: 3 });
        e.observe(v(0.9));
        e.observe(v(0.1));
        e.observe(v(0.1));
        assert_eq!(e.estimate(), v(0.9), "peak still in window");
        e.observe(v(0.1));
        assert_eq!(e.estimate(), v(0.1), "peak slid out");
    }

    #[test]
    fn window_max_is_per_dimension() {
        let mut e = DemandEstimator::new(EstimatorKind::WindowMax { window: 2 });
        e.observe(ResourceVector::new(0.9, 0.1, 0.0, 0.0));
        e.observe(ResourceVector::new(0.1, 0.8, 0.0, 0.0));
        let est = e.estimate();
        assert_eq!(est.cpu, 0.9);
        assert_eq!(est.memory, 0.8);
    }
}
