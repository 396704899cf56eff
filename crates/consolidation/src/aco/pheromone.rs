//! The colony's pheromone store: the Max–Min matrix over (item, bin)
//! pairs, kept sparse.
//!
//! A dense matrix holds `n_items × n_bins` values, yet only the cells a
//! solution deposited on ever differ from the rest: under the default
//! global-best rule a cycle deposits on one cell per item. The store keeps
//! one `base` value for every cell no deposit has set apart and, per bin,
//! an item-sorted row of the cells that may hold anything else.
//!
//! # Why it is the dense matrix, bit for bit
//!
//! Every dense cell starts at `τ0` and changes under two maps only:
//! evaporation `E(τ) = ((1 − ρ)·τ).max(τ_min)`, applied to every cell, and
//! a deposit `D(τ) = (τ + a).min(τ_max)`, applied to one. `base` starts at
//! `τ0` and goes through every `E` by the same expression, so a cell that
//! no deposit has touched holds `base`'s bits: a deterministic function of
//! identical bits returns identical bits. A cell joins its row at its first
//! deposit, starting from `base`, which is what the dense cell held. An
//! evaporation drops a cell from its row when its new bits equal `base`'s
//! new bits; from then on the two see the same maps from the same bits, so
//! reading `base` for the cell is exact, and the next deposit re-inserts it
//! from `base`. The comparison is on bits, not `==`: `-0.0 == 0.0` holds
//! between two values that later maps tell apart (`-0.0 + -0.0` is `-0.0`,
//! `0.0 + -0.0` is `0.0`), and a NaN, equal to nothing, would just stay in
//! its row. Keeping a cell whose bits equal `base`'s (as a deposit of 0
//! leaves one until the next evaporation) is always exact; only dropping
//! one that differs would not be. None of this depends on the Max–Min band
//! being well formed, and `tests/pheromone_reference` holds the dense
//! matrix the store is compared against over arbitrary bands.

/// One cell that a deposit set apart from `base`: 16 bytes.
#[derive(Clone, Copy, Debug)]
struct Cell {
    item: usize,
    tau: f64,
}

/// The pheromone over (item, bin) pairs: `base` plus, per bin, the cells
/// that may differ from it.
#[derive(Debug)]
pub(super) struct Pheromone {
    /// τ of every cell that is in no row.
    base: f64,
    /// Per bin, the cells that may differ from `base`, sorted by item.
    rows: Vec<Vec<Cell>>,
    n_items: usize,
}

impl Pheromone {
    /// Every cell at `tau0`.
    pub(super) fn new(n_items: usize, n_bins: usize, tau0: f64) -> Self {
        Pheromone {
            base: tau0,
            rows: vec![Vec::new(); n_bins],
            n_items,
        }
    }

    /// `τ(·, bin)` for every item, as a row an ant reads by item.
    pub(super) fn row(&self, bin: usize) -> Vec<f64> {
        let mut row = vec![self.base; self.n_items];
        for cell in &self.rows[bin] {
            row[cell.item] = cell.tau;
        }
        row
    }

    /// Turn `row`, which holds `τ(·, from)`, into `τ(·, to)`: the cells of
    /// `from` go back to `base`, those of `to` are patched in.
    pub(super) fn move_row(&self, row: &mut [f64], from: usize, to: usize) {
        for cell in &self.rows[from] {
            row[cell.item] = self.base;
        }
        for cell in &self.rows[to] {
            row[cell.item] = cell.tau;
        }
    }

    /// Evaporate every cell. Returns the cells of the matrix, `n_items ×
    /// n_bins`, though only `base` and the rows are visited.
    pub(super) fn evaporate(&mut self, rho: f64, tau_min: f64) -> u64 {
        let base = ((1.0 - rho) * self.base).max(tau_min);
        self.base = base;
        for row in &mut self.rows {
            row.retain_mut(|cell| {
                cell.tau = ((1.0 - rho) * cell.tau).max(tau_min);
                cell.tau.to_bits() != base.to_bits()
            });
        }
        (self.n_items * self.rows.len()) as u64
    }

    /// Add `amount` to the `(item, bin)` cell, capped at `tau_max`.
    pub(super) fn deposit(&mut self, item: usize, bin: usize, amount: f64, tau_max: f64) {
        let row = &mut self.rows[bin];
        match row.binary_search_by_key(&item, |cell| cell.item) {
            Ok(at) => row[at].tau = (row[at].tau + amount).min(tau_max),
            Err(at) => {
                let tau = (self.base + amount).min(tau_max);
                row.insert(at, Cell { item, tau });
            }
        }
    }

    /// Every cell is finite and inside the Max–Min band `[tau_min,
    /// tau_max]` (debug-asserted after every cycle). `base` counts only
    /// while some cell reads it.
    pub(super) fn within_bounds(&self, tau_min: f64, tau_max: f64) -> bool {
        let ok = |t: f64| t.is_finite() && (tau_min..=tau_max).contains(&t);
        (self.live_cells() == self.n_items * self.rows.len() || ok(self.base))
            && self.rows.iter().flatten().all(|cell| ok(cell.tau))
    }

    /// Cells held in rows, over every bin.
    pub(super) fn live_cells(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// `τ(item, bin)`.
    #[cfg(test)]
    fn get(&self, item: usize, bin: usize) -> f64 {
        let row = &self.rows[bin];
        match row.binary_search_by_key(&item, |cell| cell.item) {
            Ok(at) => row[at].tau,
            Err(_) => self.base,
        }
    }
}

#[cfg(test)]
#[path = "../../tests/pheromone_reference/mod.rs"]
mod pheromone_reference;

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::pheromone_reference::PheromoneMatrix;
    use super::*;
    use crate::aco::{AcoConsolidator, AcoParams, UpdateRule};
    use crate::problem::InstanceGenerator;
    use snooze_simcore::rng::SimRng;

    /// One operation on the store.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Evaporate,
        Deposit {
            item: usize,
            bin: usize,
            amount: f64,
        },
    }

    /// `(rho, tau0, tau_min, tau_max)`.
    type Band = (f64, f64, f64, f64);

    /// The two stores side by side over one band.
    struct Pair {
        band: Band,
        sparse: Pheromone,
        dense: PheromoneMatrix,
        n_items: usize,
        n_bins: usize,
    }

    impl Pair {
        fn new(n_items: usize, n_bins: usize, band: Band) -> Self {
            Pair {
                band,
                sparse: Pheromone::new(n_items, n_bins, band.1),
                dense: PheromoneMatrix::new(n_items, n_bins, band.1),
                n_items,
                n_bins,
            }
        }

        /// Apply `op` to both, then require every cell bit-identical, the
        /// ant's row identical to the cells, the same evaporation count
        /// and the same verdict from `within_bounds`.
        fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
            let (rho, _, tau_min, tau_max) = self.band;
            let op = match op {
                Op::Deposit { item, bin, amount } => Op::Deposit {
                    item: item % self.n_items,
                    bin: bin % self.n_bins,
                    amount,
                },
                evaporate => evaporate,
            };
            match op {
                Op::Evaporate => {
                    let counted = self.sparse.evaporate(rho, tau_min);
                    prop_assert_eq!(counted, self.dense.evaporate(rho, tau_min));
                }
                Op::Deposit { item, bin, amount } => {
                    self.sparse.deposit(item, bin, amount, tau_max);
                    self.dense.deposit(item, bin, amount, tau_max);
                }
            }
            let mut row = self.sparse.row(0);
            for bin in 0..self.n_bins {
                if bin > 0 {
                    self.sparse.move_row(&mut row, bin - 1, bin);
                }
                for (item, (ant, dense)) in row.iter().zip(self.dense.row(bin)).enumerate() {
                    let dense = dense.to_bits();
                    prop_assert_eq!(self.sparse.get(item, bin).to_bits(), dense, "{:?}", op);
                    prop_assert_eq!(ant.to_bits(), dense, "row of bin {}", bin);
                }
            }
            prop_assert_eq!(
                self.sparse.within_bounds(tau_min, tau_max),
                self.dense.within_bounds(tau_min, tau_max)
            );
            prop_assert!(self.sparse.live_cells() <= self.n_items * self.n_bins);
            Ok(())
        }
    }

    /// Bands: the colony's own (`τ_max = 10·τ0`), a narrow one that
    /// clamps often, one whose `τ0` starts above `τ_max`, and a subnormal
    /// one with a negative `τ_min` where cells reach `-0.0` while `base`
    /// is `0.0`.
    fn band() -> impl Strategy<Value = Band> {
        prop_oneof![
            (0.05f64..0.95, 0.1f64..5.0).prop_map(|(rho, tau0)| (
                rho,
                tau0,
                tau0 / 100.0,
                tau0 * 10.0
            )),
            (0.3f64..0.9).prop_map(|rho| (rho, 1.0, 0.5, 1.5)),
            (0.3f64..0.9).prop_map(|rho| (rho, 20.0, 0.01, 10.0)),
            Just((0.5, 5e-324, -1.0, 1.0)),
        ]
    }

    /// A deposit on a cell of a 4 × 4 matrix, folded onto the case's
    /// smaller one by `Pair::apply`.
    fn deposit() -> impl Strategy<Value = Op> {
        (
            0usize..4,
            0usize..4,
            prop_oneof![0.0f64..2.0, Just(0.0), Just(-1e-323), Just(100.0)],
        )
            .prop_map(|(item, bin, amount)| Op::Deposit { item, bin, amount })
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![Just(Op::Evaporate), deposit(), deposit()],
            0..80,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sparse store against the dense matrix it replaced, cell by
        /// cell after every operation: random evaporations and deposits
        /// (several on one cell between two evaporations, as under
        /// `AllAnts`, and amounts past `τ_max`); then evaporations until,
        /// in a band with `τ_min > 0`, every cell has fallen back to
        /// `base` and left its row; then the same deposits again, twice
        /// each in one cycle, and one capped at `τ_max`.
        #[test]
        fn sparse_store_is_the_dense_matrix_bit_for_bit(
            n_items in 1usize..5,
            n_bins in 1usize..5,
            band in band(),
            ops in ops(),
        ) {
            let mut pair = Pair::new(n_items, n_bins, band);
            for &op in &ops {
                pair.apply(op)?;
            }
            for _ in 0..2000 {
                if pair.sparse.live_cells() == 0 {
                    break;
                }
                pair.apply(Op::Evaporate)?;
            }
            if band.2 > 0.0 {
                prop_assert_eq!(pair.sparse.live_cells(), 0);
            }
            for &op in &ops {
                if let Op::Deposit { .. } = op {
                    pair.apply(op)?;
                    pair.apply(op)?;
                }
            }
            pair.apply(Op::Deposit { item: 0, bin: 0, amount: band.3 })?;
        }
    }

    /// The case the bit comparison exists for, spelled out: a cell at
    /// `-0.0` beside `base` at `0.0` stays in its row.
    #[test]
    fn a_negative_zero_cell_is_not_base() {
        let mut pair = Pair::new(2, 1, (0.5, 5e-324, -1.0, 1.0));
        for op in [
            Op::Deposit {
                item: 1,
                bin: 0,
                amount: -1e-323,
            },
            Op::Evaporate,
            Op::Deposit {
                item: 1,
                bin: 0,
                amount: -0.0,
            },
            Op::Evaporate,
        ] {
            pair.apply(op).unwrap();
        }
        assert_eq!(pair.sparse.get(1, 0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(pair.sparse.get(0, 0).to_bits(), 0.0f64.to_bits());
    }

    /// What the colony holds: a cell is 16 bytes, and under the global-best
    /// rule a cycle adds at most one cell per item, where the dense matrix
    /// held `n_items × n_bins` from the start — more than `n_items × cycles`
    /// on this instance.
    #[test]
    fn a_colony_holds_at_most_one_cell_per_item_and_cycle() {
        assert_eq!(std::mem::size_of::<Cell>(), 16);
        let inst = InstanceGenerator::grid11().generate(60, &mut SimRng::new(11));
        let params = AcoParams::default();
        assert_eq!(params.update_rule, UpdateRule::GlobalBest);
        let (run, pheromone) = AcoConsolidator::new(params).colony(&inst);
        let bound = inst.n_items() * run.profile.cycles as usize;
        assert!(
            inst.n_items() * inst.n_bins() > bound,
            "{} bins",
            inst.n_bins()
        );
        assert!(
            pheromone.live_cells() <= bound,
            "{} live cells over {} items and {} cycles",
            pheromone.live_cells(),
            inst.n_items(),
            run.profile.cycles
        );
    }
}
