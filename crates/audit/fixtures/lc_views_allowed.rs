//! `lc-views` fixture: a marker keeps a copy outside the two planners.

impl GroupManager {
    fn try_place(&mut self, vm: VmId) -> Option<LcId> {
        // audit-allow(lc-views): the fixture's reason
        let views = self.lc_views();
        first_fit(&views, vm)
    }
}
