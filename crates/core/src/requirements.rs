//! Non-functional requirements attached to tasks.
//!
//! LEGaTO applications "have a different set of requirements in terms of
//! energy efficiency, Fault Tolerance, and Security … facilitated by a
//! single programming model which … allows the developer to specify their
//! requirements" (paper, §II). This module is that specification surface:
//! a [`Requirements`] value travels with every task descriptor and is
//! interpreted by the runtime: replication from the criticality, enclave
//! placement and sealing from the security level.

use serde::{Deserialize, Serialize};

/// How reliability-critical a task is.
///
/// The LEGaTO runtime performs *energy-efficient selective replication*:
/// "only the most reliability-critical tasks will be replicated" (paper,
/// §I). The runtime maps these levels to replica counts.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum Criticality {
    /// Failure is tolerable (e.g. a dropped video frame).
    Low,
    /// Default level: failures are detected but not masked.
    #[default]
    Normal,
    /// Failures must be detected and the task retried.
    High,
    /// Failures must be masked; the runtime replicates and votes.
    Critical,
}

impl Criticality {
    /// Number of replicas the runtime schedules for this level
    /// (1 = no replication).
    #[must_use]
    pub fn replica_count(self) -> usize {
        match self {
            Criticality::Low | Criticality::Normal => 1,
            Criticality::High => 2,
            Criticality::Critical => 3,
        }
    }

    /// Whether results of replicas must be voted on: only triple
    /// replicas can mask a fault by majority; dual replicas detect a
    /// mismatch and retry.
    ///
    /// ```
    /// use legato_core::requirements::Criticality;
    /// assert!(Criticality::Critical.requires_voting());
    /// assert!(!Criticality::High.requires_voting()); // two replicas: detect only
    /// ```
    #[must_use]
    pub fn requires_voting(self) -> bool {
        matches!(self, Criticality::Critical)
    }
}

/// Confidentiality class of the data a task touches — the scheduling
/// dimension behind the paper's security pillar. The runtime interprets
/// it end to end: `Enclave` tasks are *only* placed on TEE-capable
/// devices (attested once per (enclave, device) pair), and regions
/// written at `Confidential` or above are sealed at rest, so any traffic
/// that crosses a device boundary — or enters a checkpoint — pays
/// seal/unseal costs.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum SecurityLevel {
    /// No confidentiality requirement ("public").
    #[default]
    Public,
    /// Sealed I/O: the task's written regions are sealed at rest and on
    /// any cross-device hop; execution may run outside an enclave.
    Confidential,
    /// Enclave-only: execution must happen inside a (simulated) enclave
    /// with attestation, on a TEE-capable device.
    Enclave,
}

impl SecurityLevel {
    /// Whether this level forces enclave execution.
    #[must_use]
    pub fn requires_enclave(self) -> bool {
        matches!(self, SecurityLevel::Enclave)
    }

    /// Whether regions written by a task at this level are sealed at
    /// rest (and therefore seal/unseal on every cross-device hop and
    /// checkpoint write).
    #[must_use]
    pub fn seals_at_rest(self) -> bool {
        !matches!(self, SecurityLevel::Public)
    }
}

/// Bundle of non-functional requirements for one task.
///
/// ```
/// use legato_core::requirements::{Criticality, Requirements, SecurityLevel};
///
/// let req = Requirements::new()
///     .with_criticality(Criticality::Critical)
///     .with_security(SecurityLevel::Enclave);
/// assert_eq!(req.criticality.replica_count(), 3);
/// assert!(req.security.requires_enclave());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Requirements {
    /// Reliability criticality level.
    pub criticality: Criticality,
    /// Confidentiality level.
    pub security: SecurityLevel,
}

impl Requirements {
    /// Requirements with all defaults: normal criticality, public data.
    #[must_use]
    pub fn new() -> Self {
        Requirements::default()
    }

    /// Set the criticality level.
    #[must_use]
    pub fn with_criticality(mut self, c: Criticality) -> Self {
        self.criticality = c;
        self
    }

    /// Set the security level.
    #[must_use]
    pub fn with_security(mut self, s: SecurityLevel) -> Self {
        self.security = s;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_neutral() {
        let r = Requirements::default();
        assert_eq!(r.criticality, Criticality::Normal);
        assert_eq!(r.security, SecurityLevel::Public);
    }

    #[test]
    fn replica_counts_follow_criticality() {
        assert_eq!(Criticality::Low.replica_count(), 1);
        assert_eq!(Criticality::Normal.replica_count(), 1);
        assert_eq!(Criticality::High.replica_count(), 2);
        assert_eq!(Criticality::Critical.replica_count(), 3);
    }

    #[test]
    fn only_critical_votes() {
        assert!(Criticality::Critical.requires_voting());
        assert!(!Criticality::High.requires_voting());
    }

    #[test]
    fn criticality_is_ordered() {
        assert!(Criticality::Low < Criticality::Normal);
        assert!(Criticality::Normal < Criticality::High);
        assert!(Criticality::High < Criticality::Critical);
    }

    #[test]
    fn security_enclave_detection() {
        assert!(!SecurityLevel::Public.requires_enclave());
        assert!(!SecurityLevel::Confidential.requires_enclave());
        assert!(SecurityLevel::Enclave.requires_enclave());
    }

    #[test]
    fn sealing_levels() {
        assert!(!SecurityLevel::Public.seals_at_rest());
        assert!(SecurityLevel::Confidential.seals_at_rest());
        assert!(SecurityLevel::Enclave.seals_at_rest());
    }

    #[test]
    fn builder_chain() {
        let r = Requirements::new()
            .with_criticality(Criticality::High)
            .with_security(SecurityLevel::Confidential);
        assert_eq!(r.criticality, Criticality::High);
        assert_eq!(r.security, SecurityLevel::Confidential);
    }
}
