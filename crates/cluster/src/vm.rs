//! Virtual machine identities, specifications and lifecycle.

use snooze_simcore::mc::{McHasher, McState};

use crate::resources::ResourceVector;

/// Globally unique VM identity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VmId(pub u64);

/// What a client requests when submitting a VM: its identity, its resource
/// reservation, and the size of its memory image (which governs live
/// migration cost).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VmSpec {
    /// Identity.
    pub id: VmId,
    /// Reserved capacity. Schedulers must never place a VM where the sum
    /// of reservations exceeds node capacity.
    pub requested: ResourceVector,
    /// Memory image size in MB (usually equal to `requested.memory`).
    pub image_mb: f64,
}

impl VmSpec {
    /// A spec whose image size equals its memory reservation.
    pub fn new(id: VmId, requested: ResourceVector) -> Self {
        VmSpec {
            id,
            requested,
            image_mb: requested.memory,
        }
    }
}

/// Lifecycle of a VM as seen by the management plane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmState {
    /// Submitted, not yet placed.
    Pending,
    /// Placed, booting on its node.
    Booting,
    /// Running.
    Running,
    /// Being live-migrated to another node.
    Migrating,
    /// Gone (completed, destroyed, or lost to a node failure).
    Terminated,
}

impl McState for VmId {
    fn mc_fold(&self, h: &mut McHasher) {
        h.word(self.0);
    }
}

impl McState for VmSpec {
    fn mc_fold(&self, h: &mut McHasher) {
        self.id.mc_fold(h);
        self.requested.mc_fold(h);
        h.float(self.image_mb);
    }
}

impl McState for VmState {
    fn mc_fold(&self, h: &mut McHasher) {
        h.word(match self {
            VmState::Pending => 1,
            VmState::Booting => 2,
            VmState::Running => 3,
            VmState::Migrating => 4,
            VmState::Terminated => 5,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_image_to_memory() {
        let spec = VmSpec::new(VmId(1), ResourceVector::new(2.0, 4096.0, 100.0, 100.0));
        assert_eq!(spec.image_mb, 4096.0);
    }
}
