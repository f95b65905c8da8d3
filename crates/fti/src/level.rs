//! Checkpoint levels of the multi-level scheme.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The four levels of the FTI multi-level checkpoint scheme.
///
/// Higher levels survive harsher failures at higher cost; a production run
/// interleaves them (frequent L1, rare L4), which is what
/// [`FtiConfig`](crate::config::FtiConfig) interval counters express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CheckpointLevel {
    /// Local checkpoint on the node's NVMe.
    L1,
    /// Copy on a partner node (in partner memory/storage).
    L2,
    /// Reed–Solomon erasure coding across the process group.
    L3,
    /// Flush to the parallel file system.
    L4,
}

impl CheckpointLevel {
    /// All levels, cheapest first.
    pub const ALL: [CheckpointLevel; 4] = [
        CheckpointLevel::L1,
        CheckpointLevel::L2,
        CheckpointLevel::L3,
        CheckpointLevel::L4,
    ];

    /// How many simultaneous node losses the level tolerates
    /// (`usize::MAX` marks L4, which survives any node-set loss as long as
    /// the file system does). This is what tells FTI's four levels
    /// apart: each costs more than the last because it survives more.
    ///
    /// ```
    /// use legato_fti::CheckpointLevel;
    ///
    /// // Node-local storage dies with its node; a partner copy survives
    /// // one loss; Reed-Solomon survives as many as it has parity shards.
    /// assert_eq!(CheckpointLevel::L1.node_losses_survived(2), 0);
    /// assert_eq!(CheckpointLevel::L2.node_losses_survived(2), 1);
    /// assert_eq!(CheckpointLevel::L3.node_losses_survived(2), 2);
    /// ```
    #[must_use]
    pub fn node_losses_survived(self, parity: usize) -> usize {
        match self {
            CheckpointLevel::L1 => 0,
            CheckpointLevel::L2 => 1,
            CheckpointLevel::L3 => parity,
            CheckpointLevel::L4 => usize::MAX,
        }
    }
}

impl fmt::Display for CheckpointLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckpointLevel::L1 => "L1",
            CheckpointLevel::L2 => "L2",
            CheckpointLevel::L3 => "L3",
            CheckpointLevel::L4 => "L4",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_ordered_by_strength() {
        assert!(CheckpointLevel::L1 < CheckpointLevel::L4);
        assert_eq!(CheckpointLevel::L1.node_losses_survived(2), 0);
        assert_eq!(CheckpointLevel::L2.node_losses_survived(2), 1);
        assert_eq!(CheckpointLevel::L3.node_losses_survived(2), 2);
        assert_eq!(CheckpointLevel::L4.node_losses_survived(2), usize::MAX);
    }

    #[test]
    fn display() {
        assert_eq!(CheckpointLevel::L3.to_string(), "L3");
        assert_eq!(CheckpointLevel::ALL.len(), 4);
    }
}
