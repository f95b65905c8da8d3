//! E10 — secure offload: confidentiality as a scheduling dimension,
//! end to end through the event engine.
//!
//! The paper's security pillar claims "energy-efficient
//! security-by-design" — instruction-level hardware support makes
//! TEE-backed execution affordable (§I). The per-task half of that
//! claim is E9 (`experiments::secure`: hardware crypto keeps the
//! per-task overhead under 10 %); this sweep measures the *end-to-end
//! scheduling premium* of confidentiality on the full core → hw →
//! runtime → secure spine, where the price has two parts: enclave-only
//! chains lose the accelerators (the placement rule pins them to TEE
//! CPUs), and every task pays boundary crypto at its device's rate —
//! the part hardware assistance cuts:
//!
//! * a scatter → chains → gather graph of inference tasks, where a
//!   configurable fraction of chains is declared
//!   `SecurityLevel::Enclave` — the engine must keep those chains on
//!   the TEE-capable CPUs even though the GPU wins every unconstrained
//!   placement;
//! * two hardware variants: TEE CPUs with *software* crypto vs
//!   *hardware-assisted* crypto (same compute specs, only the
//!   [`TeeCapability`] differs);
//! * the measured quantity is the simulated makespan overhead versus
//!   the all-public baseline on the same devices — confidentiality's
//!   end-to-end price, attestations and sealing included.
//!
//! Expected shape (asserted in the module tests and
//! `tests/full_stack.rs`; every cell's overhead in ‰ and makespan bits
//! pinned in `tests/experiments_goldens.rs`): overhead grows with the
//! confidential fraction, and hardware crypto pays measurably less than
//! software at every non-zero fraction.

use legato_core::task::Work;
use legato_core::units::{Bytes, Seconds};
use legato_hw::device::{DeviceSpec, TeeCapability};
use legato_runtime::{EngineConfig, Policy, Runtime, RuntimeError, SecurityStats};
use legato_workloads::{region_sizes, Fan};

/// Which crypto class the TEE-capable devices carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoClass {
    /// TrustZone-class enclaves, software crypto.
    Software,
    /// SGX/AES-NI-class enclaves, hardware-accelerated crypto.
    Hardware,
}

impl CryptoClass {
    /// Both classes, software first.
    pub const ALL: [CryptoClass; 2] = [CryptoClass::Software, CryptoClass::Hardware];

    /// Label used in row ids and tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CryptoClass::Software => "sw",
            CryptoClass::Hardware => "hw",
        }
    }

    /// The TEE capability this class grants the CPUs.
    #[must_use]
    pub fn tee(self) -> TeeCapability {
        match self {
            CryptoClass::Software => TeeCapability::software(),
            CryptoClass::Hardware => TeeCapability::hardware_assisted(),
        }
    }
}

/// The reference device mix: two TEE-capable CPUs (crypto class under
/// test) and two accelerators that must never see enclave work.
#[must_use]
pub fn devices(crypto: CryptoClass) -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::xeon_x86().with_tee(crypto.tee()),
        DeviceSpec::arm64().with_tee(crypto.tee()),
        DeviceSpec::gtx1080(),
        DeviceSpec::fpga_kintex(),
    ]
}

/// The secure-offload workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Independent chains behind the scatter task.
    pub chains: usize,
    /// Tasks per chain.
    pub depth: usize,
    /// Work per task.
    pub work: Work,
    /// Declared size of each chain's data region (the enclave-boundary
    /// and sealing traffic per task).
    pub region_bytes: Bytes,
}

impl Scenario {
    /// The reference scenario: 32 chains × 8 inference tasks moving
    /// 32 MiB regions — large enough that crypto bandwidth matters.
    #[must_use]
    pub fn reference() -> Self {
        Scenario {
            chains: 32,
            depth: 8,
            work: Work::flops(66e9),
            region_bytes: Bytes::mib(32),
        }
    }

    /// Number of chains declared enclave-only at `percent` confidential.
    #[must_use]
    pub fn confidential_chains(&self, percent: u32) -> usize {
        (self.chains * percent as usize) / 100
    }

    /// The scatter → chains → gather graph with the first
    /// `confidential_chains(percent)` chains enclave-only (and the gather
    /// with them: it reads their outputs).
    #[must_use]
    pub fn fan(&self, percent: u32) -> Fan {
        Fan::confidential(
            self.chains,
            self.depth,
            self.work,
            self.confidential_chains(percent),
        )
    }
}

/// One `(confidential %, crypto class)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct SecureOffloadRow {
    /// Percentage of chains declared enclave-only.
    pub percent: u32,
    /// Crypto class label (`"sw"` / `"hw"`).
    pub crypto: &'static str,
    /// Tasks in the graph.
    pub tasks: usize,
    /// Tasks that completed (always all — security restricts placement,
    /// it never drops work).
    pub completed: usize,
    /// Simulated completion time.
    pub makespan: Seconds,
    /// Relative makespan overhead vs the all-public baseline on the
    /// same devices (`makespan / baseline − 1`).
    pub overhead: f64,
    /// The run's security counters.
    pub security: SecurityStats,
}

/// `scenario` at the given confidential `percent`, submitted to a
/// security-configured engine on the `crypto` device mix. Deterministic
/// per `seed`.
///
/// # Errors
///
/// Whatever [`EngineConfig::build`] refuses.
pub fn runtime(
    scenario: Scenario,
    percent: u32,
    crypto: CryptoClass,
    seed: u64,
) -> Result<Runtime, RuntimeError> {
    let fan = scenario.fan(percent);
    let sizes = region_sizes(fan.regions(), scenario.region_bytes);
    let mut rt = EngineConfig::new()
        .with_devices(devices(crypto))
        .with_policy(Policy::Performance)
        .with_seed(seed)
        .with_region_sizes(sizes)
        .build()?;
    super::submit(&mut rt, &fan, seed);
    Ok(rt)
}

/// The confidential-fraction grid the paper-shaped claim is evaluated
/// over.
pub const REFERENCE_PERCENTS: [u32; 4] = [0, 25, 50, 100];

/// Run the full sweep: every fraction × both crypto classes, overheads
/// measured against each class's own all-public baseline. The grid's
/// leading 0 % cell *is* the baseline — it runs once and anchors the
/// class's overheads, never a second time.
#[must_use]
pub fn sweep(scenario: Scenario, seed: u64) -> Vec<SecureOffloadRow> {
    debug_assert_eq!(REFERENCE_PERCENTS[0], 0, "the grid leads with the baseline");
    let mut rows = Vec::new();
    for crypto in CryptoClass::ALL {
        let mut baseline = None;
        for percent in REFERENCE_PERCENTS {
            let mut rt = runtime(scenario, percent, crypto, seed).expect("valid engine config");
            let tasks = rt.graph().len();
            let report = rt.run().expect("devices present");
            let baseline = *baseline.get_or_insert(report.makespan);
            rows.push(SecureOffloadRow {
                percent,
                crypto: crypto.label(),
                tasks,
                completed: report.placements.len(),
                makespan: report.makespan,
                overhead: report.makespan / baseline - 1.0,
                security: report.security.unwrap_or_default(),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rows: &'a [SecureOffloadRow], percent: u32, crypto: &str) -> &'a SecureOffloadRow {
        rows.iter()
            .find(|r| r.percent == percent && r.crypto == crypto)
            .expect("cell present")
    }

    #[test]
    fn security_never_drops_work() {
        let rows = sweep(Scenario::reference(), 42);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert_eq!(r.completed, r.tasks, "{r:?}");
        }
    }

    #[test]
    fn overhead_grows_with_confidential_fraction() {
        let rows = sweep(Scenario::reference(), 42);
        for crypto in ["sw", "hw"] {
            let zero = row(&rows, 0, crypto);
            assert!(
                zero.overhead.abs() < 1e-12,
                "all-public must be the baseline: {zero:?}"
            );
            assert_eq!(zero.security, SecurityStats::default());
            let quarter = row(&rows, 25, crypto).overhead;
            let full = row(&rows, 100, crypto).overhead;
            assert!(quarter > 0.0, "{crypto}: 25% must cost something");
            assert!(
                full > quarter,
                "{crypto}: overhead must grow with the fraction ({quarter:.3} vs {full:.3})"
            );
        }
    }

    #[test]
    fn hardware_crypto_pays_less_than_software_at_every_fraction() {
        let rows = sweep(Scenario::reference(), 42);
        for percent in [25, 50, 100] {
            let sw = row(&rows, percent, "sw").overhead;
            let hw = row(&rows, percent, "hw").overhead;
            assert!(
                hw < sw,
                "{percent}%: hardware crypto must be cheaper ({hw:.3} vs {sw:.3})"
            );
        }
    }

    #[test]
    fn confidential_cells_attest_and_spend_enclave_time() {
        let rows = sweep(Scenario::reference(), 42);
        for r in rows.iter().filter(|r| r.percent > 0) {
            assert!(r.security.attestations > 0, "{r:?}");
            assert!(r.security.enclave_tasks > 0, "{r:?}");
            assert!(r.security.enclave_time > Seconds::ZERO, "{r:?}");
        }
    }
}
