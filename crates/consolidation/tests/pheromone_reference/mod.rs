//! The dense pheromone matrix, frozen: `n_items × n_bins` cells stored
//! bin-major, exactly as it stood in `src/aco.rs` before the sparse store
//! replaced it, its methods made `pub`. Kept only so the store's unit tests
//! (`src/aco/pheromone.rs`, which includes this file by `#[path]`) can
//! assert it holds the same bits in every cell after every evaporation
//! and deposit — do not optimise this file.

/// Dense pheromone matrix over (item, bin) pairs, stored bin-major: an
/// ant fills one bin at a time, so each construction step gathers from
/// one contiguous row.
#[derive(Clone, Debug)]
pub struct PheromoneMatrix {
    tau: Vec<f64>,
    n_items: usize,
}

impl PheromoneMatrix {
    pub fn new(n_items: usize, n_bins: usize, tau0: f64) -> Self {
        PheromoneMatrix {
            tau: vec![tau0; n_items * n_bins],
            n_items,
        }
    }

    /// `τ(·, bin)` for every item.
    #[inline]
    pub fn row(&self, bin: usize) -> &[f64] {
        &self.tau[bin * self.n_items..(bin + 1) * self.n_items]
    }

    pub fn evaporate(&mut self, rho: f64, tau_min: f64) -> u64 {
        for t in &mut self.tau {
            *t = ((1.0 - rho) * *t).max(tau_min);
        }
        self.tau.len() as u64
    }

    pub fn deposit(&mut self, item: usize, bin: usize, amount: f64, tau_max: f64) {
        let t = &mut self.tau[bin * self.n_items + item];
        *t = (*t + amount).min(tau_max);
    }

    /// Audit predicate: every entry is finite and inside the Max–Min
    /// band `[tau_min, tau_max]`.
    pub fn within_bounds(&self, tau_min: f64, tau_max: f64) -> bool {
        self.tau
            .iter()
            .all(|t| t.is_finite() && (tau_min..=tau_max).contains(t))
    }
}
