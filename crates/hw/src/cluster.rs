//! Cluster node descriptions consumed by the HEATS scheduler.
//!
//! A [`NodeSpec`] is the unit HEATS reasons about: a schedulable host with
//! CPU and memory capacity, a performance factor, and a linear power model
//! `P(load) = idle + (busy − idle) · load` — the standard first-order model
//! learned from PDU/PowerSpy measurements in the HEATS paper.

use legato_core::task::{TaskKind, Work};
use legato_core::units::{Bytes, Joule, Seconds, Watt};
use serde::{Deserialize, Serialize};

use crate::device::{DeviceKind, DeviceSpec};

/// Coarse classes of cluster nodes, matching the microserver families the
/// RECS|BOX hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum NodeClass {
    /// High-performance x86 node.
    HighPerfX86,
    /// Low-power ARM64 node.
    LowPowerArm,
    /// Node with a discrete GPU.
    GpuNode,
    /// Node with an FPGA accelerator.
    FpgaNode,
}

/// A schedulable cluster node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node name, unique within a cluster.
    pub name: String,
    /// Node class.
    pub class: NodeClass,
    /// Number of CPU cores.
    pub cores: u32,
    /// Memory capacity.
    pub memory: Bytes,
    /// Devices on the node (first entry is the primary compute device).
    pub devices: Vec<DeviceSpec>,
    /// Idle power of the whole node.
    pub idle_power: Watt,
    /// Fully-loaded power of the whole node.
    pub busy_power: Watt,
}

impl NodeSpec {
    /// A high-performance x86 node.
    #[must_use]
    pub fn high_perf_x86(name: impl Into<String>) -> Self {
        NodeSpec {
            name: name.into(),
            class: NodeClass::HighPerfX86,
            cores: 16,
            memory: Bytes::gib(64),
            devices: vec![DeviceSpec::xeon_x86()],
            idle_power: Watt(45.0),
            busy_power: Watt(160.0),
        }
    }

    /// A low-power ARM node.
    #[must_use]
    pub fn low_power_arm(name: impl Into<String>) -> Self {
        NodeSpec {
            name: name.into(),
            class: NodeClass::LowPowerArm,
            cores: 8,
            memory: Bytes::gib(8),
            devices: vec![DeviceSpec::arm64()],
            idle_power: Watt(4.0),
            busy_power: Watt(16.0),
        }
    }

    /// An x86 node with a GTX-1080-class GPU. The host CPU is a smaller
    /// 8-core part — GPU nodes spend their budget on the accelerator.
    #[must_use]
    pub fn gpu_node(name: impl Into<String>) -> Self {
        let host_cpu = DeviceSpec {
            name: "Xeon host (8-core)".into(),
            peak_flops: 200e9,
            ..DeviceSpec::xeon_x86()
        };
        NodeSpec {
            name: name.into(),
            class: NodeClass::GpuNode,
            cores: 8,
            memory: Bytes::gib(32),
            devices: vec![DeviceSpec::gtx1080(), host_cpu],
            idle_power: Watt(55.0),
            busy_power: Watt(320.0),
        }
    }

    /// A node with a Kintex-class FPGA.
    #[must_use]
    pub fn fpga_node(name: impl Into<String>) -> Self {
        NodeSpec {
            name: name.into(),
            class: NodeClass::FpgaNode,
            cores: 4,
            memory: Bytes::gib(16),
            devices: vec![DeviceSpec::fpga_kintex(), DeviceSpec::arm64()],
            idle_power: Watt(10.0),
            busy_power: Watt(42.0),
        }
    }

    /// Power draw at a utilization in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `load` is outside `[0, 1]`.
    #[must_use]
    pub fn power_at(&self, load: f64) -> Watt {
        assert!(
            (0.0..=1.0).contains(&load),
            "load must be in [0, 1], got {load}"
        );
        self.idle_power + (self.busy_power - self.idle_power) * load
    }

    /// Best (fastest) execution time for `work` across the node's devices.
    fn best_time(&self, work: Work, kind: TaskKind) -> Seconds {
        self.devices
            .iter()
            .map(|d| d.time_for(work, kind))
            .fold(Seconds(f64::INFINITY), Seconds::min)
    }

    /// Energy to run `work` on the best device, charging the *node-level*
    /// busy power for the duration (the metric HEATS' model predicts).
    #[must_use]
    pub fn energy_for(&self, work: Work, kind: TaskKind) -> Joule {
        self.busy_power * self.best_time(work, kind)
    }

    /// The node's CPU device (the host processor), if any.
    fn cpu_device(&self) -> Option<&DeviceSpec> {
        self.devices
            .iter()
            .find(|d| matches!(d.kind, DeviceKind::CpuX86 | DeviceKind::CpuArm))
    }

    /// The node's best accelerator for `kind`, if any.
    fn accelerator_for(&self, work: Work, kind: TaskKind) -> Option<&DeviceSpec> {
        self.devices
            .iter()
            .filter(|d| !matches!(d.kind, DeviceKind::CpuX86 | DeviceKind::CpuArm))
            .min_by(|a, b| {
                a.time_for(work, kind)
                    .partial_cmp(&b.time_for(work, kind))
                    .expect("finite times")
            })
    }

    /// Execution time of a *request* occupying `cores` of the node's CPU.
    ///
    /// CPU-bound kinds get a proportional share of the CPU's throughput
    /// (a 2-of-16-core reservation cannot use the whole socket);
    /// `Inference` work runs on the node's best accelerator at full rate
    /// when one exists (the cores only host the feeding process).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds the node's core count.
    #[must_use]
    pub fn request_time(&self, work: Work, kind: TaskKind, cores: u32) -> Seconds {
        assert!(
            cores >= 1 && cores <= self.cores,
            "request needs 1..={} cores, got {cores}",
            self.cores
        );
        if kind == TaskKind::Inference {
            if let Some(accel) = self.accelerator_for(work, kind) {
                return accel.time_for(work, kind);
            }
        }
        let cpu = match self.cpu_device() {
            Some(c) => c,
            None => return self.best_time(work, kind),
        };
        let share = f64::from(cores) / f64::from(self.cores);
        let compute = if work.flops > 0.0 {
            work.flops / (cpu.peak_flops * cpu.kind.efficiency(kind) * share)
        } else {
            0.0
        };
        let memory = if work.bytes > Bytes::ZERO {
            work.bytes.as_f64() / cpu.mem_bandwidth.0
        } else {
            0.0
        };
        Seconds(compute.max(memory))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_power_model() {
        let n = NodeSpec::high_perf_x86("n0");
        assert_eq!(n.power_at(0.0), n.idle_power);
        assert_eq!(n.power_at(1.0), n.busy_power);
        let mid = n.power_at(0.5);
        assert!(mid > n.idle_power && mid < n.busy_power);
    }

    #[test]
    #[should_panic(expected = "load must be in [0, 1]")]
    fn power_rejects_bad_load() {
        let _ = NodeSpec::low_power_arm("n").power_at(1.5);
    }

    #[test]
    fn gpu_node_fastest_at_inference() {
        let gpu = NodeSpec::gpu_node("g");
        let arm = NodeSpec::low_power_arm("a");
        let w = Work::flops(65.9e9);
        assert!(gpu.best_time(w, TaskKind::Inference) < arm.best_time(w, TaskKind::Inference));
    }

    #[test]
    fn arm_node_lowest_energy_on_small_compute() {
        // For modest compute work the low-power node wins on energy even
        // though it is slower — the trade-off HEATS exposes to customers.
        let x86 = NodeSpec::high_perf_x86("x");
        let arm = NodeSpec::low_power_arm("a");
        let w = Work::flops(5e9);
        assert!(arm.energy_for(w, TaskKind::Compute).0 < x86.energy_for(w, TaskKind::Compute).0);
        assert!(arm.best_time(w, TaskKind::Compute) > x86.best_time(w, TaskKind::Compute));
    }

    #[test]
    fn best_time_picks_minimum() {
        let g = NodeSpec::gpu_node("g");
        let w = Work::flops(1e12);
        let best = g.best_time(w, TaskKind::Inference);
        for d in &g.devices {
            assert!(best <= d.time_for(w, TaskKind::Inference));
        }
    }

    #[test]
    fn request_time_scales_with_cores() {
        let n = NodeSpec::high_perf_x86("n");
        let w = Work::flops(1e12);
        let narrow = n.request_time(w, TaskKind::Compute, 2);
        let wide = n.request_time(w, TaskKind::Compute, 16);
        assert!((narrow.0 / wide.0 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn inference_request_uses_accelerator_at_full_rate() {
        let g = NodeSpec::gpu_node("g");
        let w = Work::flops(1e12);
        // Core reservation size does not matter for accelerated inference.
        assert_eq!(
            g.request_time(w, TaskKind::Inference, 1),
            g.request_time(w, TaskKind::Inference, 8)
        );
        // And it is far faster than the CPU-share path for compute.
        assert!(
            g.request_time(w, TaskKind::Inference, 1) < g.request_time(w, TaskKind::Compute, 1)
        );
    }

    #[test]
    #[should_panic(expected = "cores")]
    fn request_time_validates_cores() {
        let n = NodeSpec::low_power_arm("n");
        let _ = n.request_time(Work::flops(1.0), TaskKind::Compute, 99);
    }

    #[test]
    fn gpu_node_is_a_poor_host_for_small_cpu_jobs() {
        // A 2-core CPU job on the GPU node pays its big power draw while
        // using a slice of the socket: both slower per-share and far more
        // energy than the low-power node.
        let gpu = NodeSpec::gpu_node("g");
        let arm = NodeSpec::low_power_arm("a");
        let w = Work::flops(5e11);
        let t_gpu = gpu.request_time(w, TaskKind::Compute, 2);
        let t_arm = arm.request_time(w, TaskKind::Compute, 2);
        let e_gpu = gpu.busy_power * (2.0 / 8.0) * t_gpu;
        let e_arm = arm.busy_power * (2.0 / 8.0) * t_arm;
        assert!(e_arm.0 < e_gpu.0);
    }
}
