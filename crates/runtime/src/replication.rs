//! Selective task replication with majority voting.
//!
//! "For fault tolerance we would like to exploit the unique characteristics
//! of the heterogeneous CPU/GPU/FPGA platform in the runtime; for example
//! by replicating tasks intelligently on diverse processing elements …
//! additionally, we will investigate energy-efficient selective replication
//! where only the most reliability-critical tasks will be replicated"
//! (paper §I).
//!
//! The mechanics: a task's [`Criticality`] decides its replica count
//! (1/2/3); replicas are placed on *distinct* devices when possible
//! (diversity defends against device-correlated faults); dual replicas
//! give detection (mismatch → retry), triple replicas give masking
//! (majority vote).

use legato_core::requirements::Criticality;
use serde::{Deserialize, Serialize};

/// Upper bound on replicas per attempt: [`Criticality::replica_count`]
/// tops out at 3 (`Critical`). The engine relies on this to store
/// replica sets inline — in event-heap entries and in
/// [`TaskOutcome`](crate::runtime::TaskOutcome) device lists — instead
/// of heap-allocating per attempt.
pub const MAX_REPLICAS: usize = 3;

/// The checksum a replica produced: the golden value or a corrupted one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReplicaResult(pub u64);

/// Verdict of comparing replica results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// All replicas agree (or only one ran): accept the value. Note that a
    /// single corrupted replica yields a *silently wrong* accept — the
    /// cost of not replicating.
    Accept(ReplicaResult),
    /// Replicas disagree with no majority, or none produced a value: a
    /// fault was *detected* but cannot be masked; the task must
    /// re-execute.
    Retry,
    /// A strict majority agrees: the fault is *masked* and the majority
    /// value accepted.
    Masked(ReplicaResult),
}

/// Compare replica results and issue a verdict. No result at all is a
/// [`Verdict::Retry`]: no replica produced a value, so the task must
/// re-execute.
#[must_use]
pub fn vote(results: &[ReplicaResult]) -> Verdict {
    match results {
        [] => return Verdict::Retry,
        [only] => return Verdict::Accept(*only),
        _ => {}
    }
    // Count agreement classes in place — this runs once per finish event
    // on the engine's hot path, and replica sets are tiny (≤ 3), so the
    // quadratic scan is cheaper than building a count table. `>=` keeps
    // the old table-max tie behavior (last class wins); ties can never
    // produce a strict majority, so the verdict is unaffected either way.
    let mut winner = results[0];
    let mut votes = 0usize;
    let mut classes = 0usize;
    for (i, &r) in results.iter().enumerate() {
        if results[..i].contains(&r) {
            continue; // counted when first seen
        }
        classes += 1;
        let count = results.iter().filter(|&&x| x == r).count();
        if count >= votes {
            winner = r;
            votes = count;
        }
    }
    if classes == 1 {
        return Verdict::Accept(results[0]);
    }
    if votes * 2 > results.len() {
        Verdict::Masked(winner)
    } else {
        Verdict::Retry
    }
}

/// How many replicas a task of the given criticality receives — the
/// "selective" in selective replication.
#[must_use]
pub fn replicas_for(criticality: Criticality) -> usize {
    criticality.replica_count()
}

/// Replication statistics accumulated over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[must_use = "stats are counters for the caller to inspect; dropping them unread is a bug"]
pub struct ReplicationStats {
    /// Tasks that ran exactly once.
    pub unreplicated: u64,
    /// Extra executions spent on replication.
    pub replica_executions: u64,
    /// Faults silently accepted (corruption with no second opinion).
    pub silent_corruptions: u64,
    /// Faults detected by disagreement and retried.
    pub detected: u64,
    /// Faults masked by majority vote.
    pub masked: u64,
    /// Re-executions triggered by detection.
    pub retries: u64,
}

impl ReplicationStats {
    /// Whether any undetected corruption slipped through.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.silent_corruptions == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: ReplicaResult = ReplicaResult(0xABCD);
    const BAD: ReplicaResult = ReplicaResult(0x1111);
    const WORSE: ReplicaResult = ReplicaResult(0x2222);

    #[test]
    fn single_replica_accepts_blindly() {
        assert_eq!(vote(&[GOOD]), Verdict::Accept(GOOD));
        assert_eq!(vote(&[BAD]), Verdict::Accept(BAD)); // silent corruption
    }

    #[test]
    fn dual_agreement_accepts() {
        assert_eq!(vote(&[GOOD, GOOD]), Verdict::Accept(GOOD));
    }

    #[test]
    fn dual_mismatch_detects() {
        assert_eq!(vote(&[GOOD, BAD]), Verdict::Retry);
    }

    #[test]
    fn triple_majority_masks() {
        assert_eq!(vote(&[GOOD, BAD, GOOD]), Verdict::Masked(GOOD));
        assert_eq!(vote(&[BAD, GOOD, GOOD]), Verdict::Masked(GOOD));
    }

    #[test]
    fn triple_all_different_retries() {
        assert_eq!(vote(&[GOOD, BAD, WORSE]), Verdict::Retry);
    }

    #[test]
    fn majority_of_corrupted_masks_wrong_value() {
        // Two identically corrupted replicas outvote the good one — the
        // reason diverse placement matters.
        assert_eq!(vote(&[BAD, BAD, GOOD]), Verdict::Masked(BAD));
    }

    #[test]
    fn replica_counts_follow_criticality() {
        assert_eq!(replicas_for(Criticality::Low), 1);
        assert_eq!(replicas_for(Criticality::Normal), 1);
        assert_eq!(replicas_for(Criticality::High), 2);
        assert_eq!(replicas_for(Criticality::Critical), 3);
    }

    #[test]
    fn empty_vote_retries() {
        assert_eq!(vote(&[]), Verdict::Retry);
    }

    #[test]
    fn stats_correctness_flag() {
        let mut s = ReplicationStats::default();
        assert!(s.is_correct());
        s.silent_corruptions = 1;
        assert!(!s.is_correct());
    }
}
