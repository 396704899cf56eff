//! `lc-views` fixture, linted as `crates/snooze/src/group_manager.rs`:
//! only the copy in `try_place` is flagged.

impl GroupManager {
    fn lc_views(&self) -> Vec<LcView> {
        self.lcs.values().map(LcView::from).collect()
    }

    fn try_place(&mut self, vm: VmId) -> Option<LcId> {
        let views = self.lc_views();
        first_fit(&views, vm)
    }

    fn reconfigure(&mut self) {
        let views = self.lc_views();
        self.plan(&views);
    }

    fn on_message(&mut self, msg: SnoozeMsg) {
        match msg {
            SnoozeMsg::AnomalyReport(report) => {
                let views = self.lc_views();
                self.relocate(&views, report);
            }
            _ => {}
        }
    }
}
