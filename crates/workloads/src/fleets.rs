//! The reference device fleets.

use legato_hw::device::DeviceSpec;

/// The device mix of the reference heterogeneous node: a Xeon, a
/// GTX 1080, a Kintex FPGA and an ARM64 SoC.
#[must_use]
pub fn reference() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::xeon_x86(),
        DeviceSpec::gtx1080(),
        DeviceSpec::fpga_kintex(),
        DeviceSpec::arm64(),
    ]
}

/// A fleet of `n` devices cycling through [`reference()`], so every
/// aligned pool of four or more holds the same mix of fast and slow,
/// TEE and non-TEE hardware.
#[must_use]
pub fn cycled(n: usize) -> Vec<DeviceSpec> {
    let specs = reference();
    (0..n).map(|i| specs[i % specs.len()].clone()).collect()
}
