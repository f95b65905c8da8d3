//! Device-selection policies.
//!
//! "The runtime systems will reduce the energy \[consumption\] of the
//! application by scheduling the computations to the most energy-efficient
//! device of the heterogeneous hardware architecture" (paper §II). The
//! [`Policy`] encodes what "most efficient" means for a given customer:
//! pure performance, pure energy, energy-delay product, or the weighted
//! trade-off HEATS exposes as a knob.
//!
//! A [`Policy`] is a [`Scheduler`]: the scoring itself lives in the
//! shared [`sched`](crate::sched) layer, and the methods here are thin
//! adapters that turn live [`Device`] state into [`Estimate`]s before
//! delegating to the trait.

use legato_core::task::{TaskKind, Work};
use legato_core::units::Seconds;
use legato_hw::device::Device;
use serde::{Deserialize, Serialize};

use crate::error::RuntimeError;
use crate::sched::{Estimate, Scheduler, ScoreNorm};

/// What a scheduler optimizes when placing a task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Minimize finish time.
    Performance,
    /// Minimize energy.
    Energy,
    /// Minimize energy-delay product.
    Edp,
    /// Minimize `w · energy + (1 − w) · time` after normalization over the
    /// candidate set; `w = 1` is pure energy, `w = 0` pure performance.
    ///
    /// Construct through [`Policy::weighted`] to get the weight validated
    /// up front; a directly-constructed out-of-range weight is reported as
    /// [`RuntimeError::InvalidWeight`] when a run starts (never a panic
    /// mid-run).
    Weighted(f64),
}

impl Policy {
    /// Validated constructor for [`Policy::Weighted`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidWeight`] when `w` is not a finite value in
    /// `[0, 1]`.
    pub fn weighted(w: f64) -> Result<Self, RuntimeError> {
        let policy = Policy::Weighted(w);
        policy.validate()?;
        Ok(policy)
    }

    /// Check that the policy's parameters are usable.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidWeight`] for a [`Policy::Weighted`] weight
    /// outside `[0, 1]` (or non-finite).
    pub fn validate(self) -> Result<(), RuntimeError> {
        match self {
            Policy::Weighted(w) if !(w.is_finite() && (0.0..=1.0).contains(&w)) => {
                Err(RuntimeError::InvalidWeight(w))
            }
            _ => Ok(()),
        }
    }

    /// Rank device indices from best to worst under this policy (used by
    /// replication to pick diverse placements).
    ///
    /// An out-of-range `Weighted` weight is clamped into `[0, 1]` here
    /// (use [`Policy::validate`] to reject it instead).
    #[must_use]
    pub fn rank(
        self,
        devices: &[Device],
        work: Work,
        kind: TaskKind,
        ready_at: Seconds,
    ) -> Vec<usize> {
        let mut estimates = Vec::with_capacity(devices.len());
        device_estimates_into(devices, work, kind, ready_at, &mut estimates);
        Scheduler::rank(&self.sanitized(), &estimates)
    }

    /// Top-k device selection for the engine's hot path: semantically
    /// identical to [`device_estimates_into`] + [`Scheduler::select_k`], but
    /// the expensive per-device roofline evaluation (`time_for`, two
    /// divisions) runs exactly **once** per device: the `(start,
    /// duration)` plan is computed first, estimates derive from it, and
    /// the chosen plans are handed back so the caller can commit them
    /// with [`Device::execute_planned`] — no re-evaluation anywhere.
    ///
    /// `avail` carries the churn layer's availability mask when the
    /// fleet is malleable: a departed or draining device is excluded
    /// from the candidate set entirely. `None` (a fixed fleet) is the
    /// exact pre-churn arithmetic.
    ///
    /// `security` carries the per-device security plan of a confidential
    /// task (or of a task reading sealed regions): an ineligible device
    /// (enclave-only task, no TEE) is excluded from the candidate set
    /// entirely, and an eligible device's extra security duration is
    /// folded into its plan *before* scoring, so the estimate the policy
    /// ranks is the true cost — transitions, boundary crypto, sealing
    /// and pending attestation included. `None` (the common case) is the
    /// exact pre-security arithmetic.
    ///
    /// `topo` carries the topology layer's per-pool transfer charges
    /// (`pool_extras`, `pool_of`) when the runtime has a pool
    /// configuration and an active
    /// [`TopologyConfig`](crate::pool::TopologyConfig): device `i`'s
    /// estimate is charged `pool_extras[pool_of[i]]` of extra duration
    /// *before* scoring, composing with the security extra. `None` is
    /// the exact pre-topology arithmetic.
    ///
    /// `energy` carries the energy layer's state when a Pareto
    /// [`EnergyObjective`](crate::energy::EnergyObjective) is in force:
    /// the objective *replaces* this policy's scoring for the selection
    /// (see [`pick_k_pareto`]), and a placement that had to relax its
    /// bound or cap bumps the state's relaxation counter. `None` (no
    /// objective) is the exact pre-energy arithmetic.
    ///
    /// Fills `out` with `(device index, start, duration)` triples in
    /// selection order and returns how many slots were filled
    /// (`min(out.len(), eligible devices)`). The plans are valid until
    /// the next `execute` on the respective device.
    #[allow(clippy::too_many_arguments)] // three scratch buffers are the point
    pub(crate) fn plan_k_devices(
        self,
        devices: &[Device],
        work: Work,
        kind: TaskKind,
        ready_at: Seconds,
        avail: Option<&[bool]>,
        security: Option<&crate::security::SecurePlan>,
        topo: Option<(&[Seconds], &[usize])>,
        energy: Option<&mut crate::energy::EnergyState>,
        estimates: &mut Vec<Estimate>,
        plans: &mut Vec<(Seconds, Seconds)>,
        candidates: &mut Vec<usize>,
        out: &mut [(usize, Seconds, Seconds)],
    ) -> usize {
        let policy = self.sanitized();
        estimates.clear();
        plans.clear();
        candidates.clear();
        for (i, d) in devices.iter().enumerate() {
            if avail.is_some_and(|a| !a[i]) {
                continue; // departed or draining: never a candidate
            }
            let mut extra = match security {
                None => Seconds::ZERO,
                Some(plan) => match plan.extra(i) {
                    Some(extra) => extra,
                    None => continue, // never a candidate
                },
            };
            if let Some((pool_extras, pool_of)) = topo {
                extra += pool_extras[pool_of[i]];
            }
            let start = ready_at.max(d.busy_until());
            let dur = d.spec.time_for(work, kind) + extra;
            // `busy_power * dur` is `DeviceSpec::energy_for` with the
            // roofline evaluated once instead of twice; the crypto time
            // burns device power like any other busy time.
            estimates.push(Estimate::new(start + dur, d.spec.busy_power * dur));
            plans.push((start, dur));
            candidates.push(i);
        }
        let mut chosen = [0usize; crate::replication::MAX_REPLICAS];
        let want = out.len().min(chosen.len());
        let k = match energy.and_then(|state| state.objective.map(|obj| (state, obj))) {
            Some((state, objective)) => pick_k_pareto(
                objective,
                state,
                devices,
                estimates,
                candidates,
                &mut chosen[..want],
            ),
            None => policy.select_k(estimates, &mut chosen[..want]),
        };
        for (slot, &c) in chosen[..k].iter().enumerate() {
            out[slot] = (candidates[c], plans[c].0, plans[c].1);
        }
        k
    }

    /// A copy of the policy with any `Weighted` weight forced into
    /// `[0, 1]` (non-finite weights become balanced `0.5`).
    pub(crate) fn sanitized(self) -> Self {
        match self {
            Policy::Weighted(w) if !w.is_finite() => Policy::Weighted(0.5),
            Policy::Weighted(w) => Policy::Weighted(w.clamp(0.0, 1.0)),
            other => other,
        }
    }
}

impl Scheduler for Policy {
    fn score(&self, estimate: &Estimate, norm: &ScoreNorm) -> f64 {
        let t = estimate.finish.0;
        let e = estimate.energy.0;
        match *self {
            Policy::Performance => t,
            Policy::Energy => e,
            Policy::Edp => t * e,
            Policy::Weighted(w) => w * norm.energy(e) + (1.0 - w) * norm.time(t),
        }
    }

    fn needs_norm(&self) -> bool {
        // Only the weighted trade-off mixes the two dimensions and needs
        // them on a common scale; the pure policies are scale-free.
        matches!(self, Policy::Weighted(_))
    }
}

/// Constrained top-k selection for a Pareto
/// [`EnergyObjective`](crate::energy::EnergyObjective), replacing the
/// policy's scoring when the energy layer imposes one:
///
/// * **Min energy within a makespan bound** — when at least `k`
///   candidates are predicted to finish by the bound, pick the `k`
///   cheapest of them in energy; otherwise fall back to the `k`
///   earliest finishers over *all* candidates and count one bound
///   relaxation (the engine never refuses to place work).
/// * **Min makespan under a power cap** — when at least `k` candidates'
///   busy draw respects the cap, pick the `k` earliest finishers among
///   them; otherwise fall back to the `k` lowest-power candidates and
///   count one cap relaxation.
///
/// Selection is the same allocation-free repeated-minimum
/// [`Scheduler::select_k`] uses, with identical earliest-index
/// tie-breaking, so Pareto runs stay exactly as deterministic as policy
/// runs.
fn pick_k_pareto(
    objective: crate::energy::EnergyObjective,
    state: &mut crate::energy::EnergyState,
    devices: &[Device],
    estimates: &[Estimate],
    candidates: &[usize],
    out: &mut [usize],
) -> usize {
    use crate::energy::EnergyObjective::{MinEnergyWithinMakespan, MinMakespanUnderPowerCap};
    let want = out.len().min(estimates.len());
    match objective {
        MinEnergyWithinMakespan(bound) => {
            let in_bound = |c: usize| estimates[c].finish.0 <= bound.0;
            let feasible = (0..estimates.len()).filter(|&c| in_bound(c)).count();
            if feasible >= want {
                pick_k_by(estimates.len(), in_bound, |c| estimates[c].energy.0, out)
            } else {
                state.bound_relaxations += 1;
                pick_k_by(estimates.len(), |_| true, |c| estimates[c].finish.0, out)
            }
        }
        MinMakespanUnderPowerCap(cap) => {
            let capped = |c: usize| devices[candidates[c]].spec.busy_power.0 <= cap.0;
            let feasible = (0..estimates.len()).filter(|&c| capped(c)).count();
            if feasible >= want {
                pick_k_by(estimates.len(), capped, |c| estimates[c].finish.0, out)
            } else {
                state.cap_relaxations += 1;
                pick_k_by(
                    estimates.len(),
                    |_| true,
                    |c| devices[candidates[c]].spec.busy_power.0,
                    out,
                )
            }
        }
    }
}

/// Repeated-minimum top-k over candidate positions `0..n` that satisfy
/// `keep`, ordered by ascending `key` with ties toward the earliest
/// position — the filtered twin of [`Scheduler::select_k`], sharing its
/// allocation-free shape and tie-break so constrained and unconstrained
/// selections are directly comparable.
fn pick_k_by(
    n: usize,
    keep: impl Fn(usize) -> bool,
    key: impl Fn(usize) -> f64,
    out: &mut [usize],
) -> usize {
    let mut filled = 0;
    for slot in 0..out.len().min(n) {
        let mut best: Option<(usize, f64)> = None;
        for c in 0..n {
            if !keep(c) || out[..slot].contains(&c) {
                continue;
            }
            let s = key(c);
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some((c, s));
            }
        }
        match best {
            Some((c, _)) => {
                out[slot] = c;
                filled += 1;
            }
            None => break,
        }
    }
    filled
}

/// Predicted completion and energy of `work` on each live device, folding
/// in the device's current availability: fill `out` (cleared first),
/// reusing its capacity.
pub fn device_estimates_into(
    devices: &[Device],
    work: Work,
    kind: TaskKind,
    ready_at: Seconds,
    out: &mut Vec<Estimate>,
) {
    out.clear();
    out.extend(devices.iter().map(|d| {
        let start = ready_at.max(d.busy_until());
        // One roofline evaluation per device: `busy_power * dur` is
        // exactly `DeviceSpec::energy_for`, which would re-run
        // `time_for` (two divisions) a second time.
        let dur = d.spec.time_for(work, kind);
        Estimate::new(start + dur, d.spec.busy_power * dur)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use legato_hw::device::{DeviceId, DeviceSpec};

    fn devices() -> Vec<Device> {
        vec![
            Device::new(DeviceId(0), DeviceSpec::xeon_x86()),
            Device::new(DeviceId(1), DeviceSpec::gtx1080()),
            Device::new(DeviceId(2), DeviceSpec::fpga_kintex()),
            Device::new(DeviceId(3), DeviceSpec::arm64()),
        ]
    }

    /// The policy's first choice for the reference inference task.
    fn best(policy: Policy, devices: &[Device]) -> usize {
        policy.rank(
            devices,
            Work::flops(66e9),
            TaskKind::Inference,
            Seconds::ZERO,
        )[0]
    }

    #[test]
    fn performance_picks_gpu_for_inference() {
        assert_eq!(
            best(Policy::Performance, &devices()),
            1,
            "GPU wins on speed"
        );
    }

    #[test]
    fn energy_picks_fpga_for_inference() {
        assert_eq!(best(Policy::Energy, &devices()), 2, "FPGA wins on energy");
    }

    #[test]
    fn weighted_interpolates() {
        let d = devices();
        assert_eq!(best(Policy::Weighted(0.0), &d), 1);
        assert_eq!(best(Policy::Weighted(1.0), &d), 2);
    }

    #[test]
    fn busy_device_loses_performance_race() {
        let mut d = devices();
        // Keep the GPU busy for a long time.
        let (_s, _f) = d[1].execute(Seconds::ZERO, Work::flops(1e14), TaskKind::Inference);
        assert_ne!(
            best(Policy::Performance, &d),
            1,
            "busy GPU should be skipped"
        );
    }

    #[test]
    fn rank_orders_all_devices() {
        let d = devices();
        let order = Policy::Energy.rank(&d, Work::flops(66e9), TaskKind::Inference, Seconds::ZERO);
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 2);
        // Every index appears exactly once.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_devices_gives_none() {
        assert!(Policy::Performance
            .rank(&[], Work::flops(1.0), TaskKind::Compute, Seconds::ZERO)
            .is_empty());
    }

    #[test]
    fn weighted_constructor_validates() {
        assert!(Policy::weighted(0.0).is_ok());
        assert!(Policy::weighted(1.0).is_ok());
        assert_eq!(Policy::weighted(1.5), Err(RuntimeError::InvalidWeight(1.5)));
        assert!(matches!(
            Policy::weighted(f64::NAN),
            Err(RuntimeError::InvalidWeight(_))
        ));
        assert_eq!(
            Policy::Weighted(1.5).validate(),
            Err(RuntimeError::InvalidWeight(1.5))
        );
        assert_eq!(Policy::Energy.validate(), Ok(()));
    }

    #[test]
    fn out_of_range_weight_no_longer_panics_in_choose() {
        let d = devices();
        // Clamped to pure energy: same pick as Weighted(1.0).
        assert_eq!(best(Policy::Weighted(1.5), &d), 2);
        // Non-finite weights degrade to a balanced trade-off, not a panic.
        let order = Policy::Weighted(f64::NAN).rank(
            &d,
            Work::flops(66e9),
            TaskKind::Inference,
            Seconds::ZERO,
        );
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn best_spec_static_choice() {
        // On an idle fleet every device is free at once, so the ranking
        // is the static comparison of the specs.
        let d = vec![
            Device::new(DeviceId(0), DeviceSpec::xeon_x86()),
            Device::new(DeviceId(1), DeviceSpec::fpga_kintex()),
        ];
        assert_eq!(best(Policy::Energy, &d), 1);
    }

    #[test]
    fn edp_balances() {
        // EDP squares the delay advantage: the GPU's 4× speed edge beats
        // the FPGA's 2× energy edge.
        assert_eq!(best(Policy::Edp, &devices()), 1);
    }
}
