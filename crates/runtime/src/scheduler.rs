//! Scheduling: the [`Scheduler`] abstraction shared by the runtime and
//! HEATS, and the runtime's device-selection [`Policy`].
//!
//! "The runtime systems will reduce the energy \[consumption\] of the
//! application by scheduling the computations to the most energy-efficient
//! device of the heterogeneous hardware architecture" (paper §II). Both
//! schedulers in the toolset answer the same question — *given a set of
//! candidate execution sites with predicted finish times and energies,
//! which one should run this task?* — so the answer lives here once:
//!
//! * a *predictor* (analytic spec, learned model, …) turns a task and a
//!   candidate into an [`Estimate`]: the runtime scores live [`Device`]s
//!   analytically from their specs ([`device_estimates_into`]), HEATS
//!   scores cluster nodes through its learned `NodeModel`s;
//! * a [`Scheduler`] turns a slice of estimates into a placement, a top-k
//!   selection, or a migration decision — all three through one
//!   repeated-minimum routine, so they share one tie-break;
//! * the [`Policy`] encodes what "most efficient" means for a given
//!   customer — pure performance, pure energy, energy-delay product, or
//!   the weighted trade-off HEATS exposes as a knob — and is the
//!   `Scheduler` that drives both the engine's device placement and
//!   HEATS' node placement and migration phases.

use legato_core::task::{TaskKind, Work};
use legato_core::units::{Joule, Seconds};
use legato_hw::device::Device;
use serde::{Deserialize, Serialize};

use crate::energy::EnergyState;
use crate::error::RuntimeError;
use crate::pool::{greatest, least, Candidates, Chunk};
use crate::replication::MAX_REPLICAS;

/// Predicted cost of running a task on one candidate execution site.
///
/// `finish` folds in whatever queueing or availability delay the predictor
/// knows about (the runtime passes absolute finish times over busy device
/// timelines; HEATS passes predicted durations, which is equivalent under
/// normalization since all its candidates start together).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Predicted completion time on this candidate.
    pub finish: Seconds,
    /// Predicted energy spent on this candidate.
    pub energy: Joule,
}

impl Estimate {
    /// Build an estimate from a finish time and an energy.
    #[must_use]
    pub fn new(finish: Seconds, energy: Joule) -> Self {
        Estimate { finish, energy }
    }
}

/// Normalization context for scores that mix time and energy.
///
/// Scale-dependent schedulers (the `Weighted` policy, HEATS' trade-off
/// scoring) need seconds and joules mapped onto a comparable scale before
/// combining them. The two constructors cover both idioms in the
/// codebase: min-max over the candidate set (batch placement) and
/// fixed reference scales (stay-vs-move migration scoring, where both
/// sides must be measured against the *same* yardstick).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreNorm {
    t_lo: f64,
    t_hi: f64,
    e_lo: f64,
    e_hi: f64,
}

impl ScoreNorm {
    /// The identity context: `time`/`energy` return their input
    /// unchanged. Used as the placeholder for scale-free schedulers
    /// ([`Scheduler::needs_norm`] is `false`), whose `score` never reads
    /// the context — skipping the min-max scan over the candidates.
    pub const IDENTITY: ScoreNorm = ScoreNorm {
        t_lo: 0.0,
        t_hi: 1.0,
        e_lo: 0.0,
        e_hi: 1.0,
    };

    /// Min-max normalization over a candidate set.
    #[must_use]
    pub fn from_estimates(estimates: &[Estimate]) -> Self {
        let (t_lo, t_hi) = min_max(estimates.iter().map(|e| e.finish.0));
        let (e_lo, e_hi) = min_max(estimates.iter().map(|e| e.energy.0));
        ScoreNorm {
            t_lo,
            t_hi,
            e_lo,
            e_hi,
        }
    }

    /// Min-max normalization from precomputed bounds: the context
    /// [`ScoreNorm::from_estimates`] would build, for a caller that
    /// already knows the candidate set's extremes. A search that prices
    /// every candidate folds them as it prices; a pruning one derives
    /// them exactly from its per-class trees, in O(classes) without
    /// topology charges (a class's members share one duration and one
    /// energy; only the queue delay varies, and each tree root caches
    /// the class's min/max busy horizon), without materializing the
    /// estimates.
    #[must_use]
    pub(crate) fn from_bounds(t_lo: f64, t_hi: f64, e_lo: f64, e_hi: f64) -> Self {
        ScoreNorm {
            t_lo,
            t_hi,
            e_lo,
            e_hi,
        }
    }

    /// Normalization against fixed reference magnitudes: a value `v` maps
    /// to `v / reference`. Used when scores from different candidate sets
    /// must stay comparable (e.g. migration hysteresis).
    #[must_use]
    pub fn from_scale(typical_time: Seconds, typical_energy: Joule) -> Self {
        ScoreNorm {
            t_lo: 0.0,
            t_hi: typical_time.0.max(1e-12),
            e_lo: 0.0,
            e_hi: typical_energy.0.max(1e-12),
        }
    }

    /// Normalized time component.
    #[must_use]
    pub fn time(&self, v: f64) -> f64 {
        normalize(v, self.t_lo, self.t_hi)
    }

    /// Normalized energy component.
    #[must_use]
    pub fn energy(&self, v: f64) -> f64 {
        normalize(v, self.e_lo, self.e_hi)
    }
}

/// A placement strategy over scored candidates.
///
/// Implementors provide [`Scheduler::score`] (lower is better); the
/// provided methods derive placement, top-k selection and migration from
/// it. The runtime's [`Policy`] implements this trait, and HEATS drives
/// its placement and rescheduling phases through the same implementation.
pub trait Scheduler {
    /// Scalar cost of one candidate under this strategy; **lower is
    /// better**. `norm` supplies the time/energy normalization context
    /// for strategies that mix the two dimensions.
    fn score(&self, estimate: &Estimate, norm: &ScoreNorm) -> f64;

    /// Whether [`Scheduler::score`] reads the normalization context.
    /// Scale-free strategies (pure time, pure energy, products of the
    /// two) override this to `false`, and the provided methods skip the
    /// min-max scan over the candidates — one fewer O(D) pass per
    /// placement on the engine's hot path.
    fn needs_norm(&self) -> bool {
        true
    }

    /// Index of the best candidate, or `None` for an empty slice. Ties
    /// break toward the earliest index, deterministically.
    fn place(&self, estimates: &[Estimate]) -> Option<usize> {
        let mut best = [0];
        (self.select_k(estimates, &mut best) == 1).then_some(best[0])
    }

    /// Top-k selection without sorting or allocating: fill `out` with the
    /// `out.len()` best candidates, best first, and return how many were
    /// filled (`min(out.len(), estimates.len())`).
    ///
    /// Choosing `k` candidates out of `D` costs O(D·k) comparisons and no
    /// allocation. The result is the first `k` entries of a stable sort
    /// by score: repeated minimum selection with strict `<` picks the
    /// earliest index among score ties.
    #[inline]
    fn select_k(&self, estimates: &[Estimate], out: &mut [usize]) -> usize {
        let norm = if self.needs_norm() {
            ScoreNorm::from_estimates(estimates)
        } else {
            ScoreNorm::IDENTITY
        };
        pick_k_by(estimates, |_, e| Some(self.score(e, &norm)), out)
    }

    /// Migration decision: given the estimate of *staying* on the current
    /// site and the estimates of the alternatives, return the index of an
    /// alternative worth moving to, or `None` to stay put.
    ///
    /// The default applies hysteresis: an alternative must beat the stay
    /// score by the relative margin `hysteresis` (e.g. `0.10` = 10 %
    /// better) to defend against migration ping-ponging. Both sides are
    /// scored under the caller-supplied `norm` so they share a yardstick.
    fn migrate(
        &self,
        stay: &Estimate,
        alternatives: &[Estimate],
        norm: &ScoreNorm,
        hysteresis: f64,
    ) -> Option<usize> {
        let mut best = [0];
        if pick_k_by(alternatives, |_, e| Some(self.score(e, norm)), &mut best) == 0 {
            return None;
        }
        let threshold = self.score(stay, norm) * (1.0 - hysteresis.max(0.0));
        (self.score(&alternatives[best[0]], norm) < threshold).then_some(best[0])
    }
}

/// Repeated-minimum top-k over `items`: position `c` competes with the
/// key `key(c, &items[c])`, or not at all when that is `None`; lowest key
/// first, ties toward the earliest position (strict `<`). Fills `out` best
/// first and returns how many slots were filled. [`Scheduler::place`],
/// [`Scheduler::select_k`] and [`Scheduler::migrate`] pick through it;
/// no engine placement does — each selects with [`TopK`].
#[inline] // each caller's key folds into the loop
fn pick_k_by<T>(items: &[T], key: impl Fn(usize, &T) -> Option<f64>, out: &mut [usize]) -> usize {
    let mut filled = 0;
    for slot in 0..out.len() {
        let mut best: Option<(usize, f64)> = None;
        for (c, item) in items.iter().enumerate() {
            if out[..slot].contains(&c) {
                continue;
            }
            let Some(s) = key(c, item) else { continue };
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some((c, s));
            }
        }
        let Some((c, _)) = best else { break };
        out[slot] = c;
        filled += 1;
    }
    filled
}

/// One placement: `(device index, start, duration)`.
pub(crate) type Plan = (usize, Seconds, Seconds);

/// The best `want` ≤ [`MAX_REPLICAS`] plans offered so far, kept sorted
/// by `(key, device index)`: lowest key first, ties to the lowest device.
/// That is the first `want` entries of a stable sort by key over an
/// index-ordered candidate list — exactly what [`pick_k_by`] selects —
/// but built in one pass: a candidate that cannot enter costs one
/// comparison against the worst plan held, and candidates may arrive in
/// any order. An unpruned placement offers every candidate as it prices
/// it (`Weighted`: every survivor of its prune, once the norm is known);
/// a pruning one offers the members of the shards it does not prune, in
/// tree order. Either skips a [`Chunk`] none of whose members could
/// enter ([`TopK::offer_chunk`]).
#[derive(Debug)]
pub(crate) struct TopK {
    keys: [f64; MAX_REPLICAS],
    plans: [Plan; MAX_REPLICAS],
    want: usize,
    len: usize,
}

impl TopK {
    /// An empty accumulator that will keep `want` plans (capped at the
    /// replica limit).
    pub(crate) fn new(want: usize) -> Self {
        TopK {
            keys: [0.0; MAX_REPLICAS],
            plans: [(0, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS],
            want: want.min(MAX_REPLICAS),
            len: 0,
        }
    }

    /// The key a candidate must beat once `want` plans are held, and the
    /// device index that wins a tie with it (`None` until then): the
    /// pruning search skips a subtree of shards whose bound is strictly
    /// above the key.
    pub(crate) fn bar(&self) -> Option<(f64, usize)> {
        let last = self.len.wrapping_sub(1);
        (self.len == self.want && self.len > 0).then(|| (self.keys[last], self.plans[last].0))
    }

    /// Whether a candidate keyed `key` or more, on device `first` or a
    /// later one, could enter: the key is below the bar, or ties it on a
    /// lower device index.
    #[inline(always)]
    pub(crate) fn admits(&self, key: f64, first: usize) -> bool {
        self.bar()
            .is_none_or(|(bar, at)| key < bar || (key == bar && first < at))
    }

    /// Offer every member of chunk `c` under `key`, which must be
    /// monotone non-decreasing in finish and in energy — or none, when
    /// not even the chunk's lower corner `c.lo` on its first device could
    /// enter. An idle class ties at `ready_at`, so the index half of the
    /// test is what lets a later tied chunk go.
    #[inline(always)]
    pub(crate) fn offer_chunk(&mut self, c: &Chunk, key: impl Fn(&Estimate) -> f64) {
        if self.admits(key(&c.lo), c.first()) {
            for i in 0..c.len() {
                self.offer(key(&c.estimate(i)), c.plan(i));
            }
        }
    }

    /// Offer one candidate plan under `key` (lower is better).
    #[inline(always)]
    pub(crate) fn offer(&mut self, key: f64, plan: Plan) {
        let mut pos = self.len;
        while pos > 0 {
            let held = self.keys[pos - 1];
            if key < held || (key == held && plan.0 < self.plans[pos - 1].0) {
                pos -= 1;
            } else {
                break;
            }
        }
        if pos >= self.want {
            return;
        }
        let last = self.len.min(self.want - 1);
        for j in (pos..last).rev() {
            self.keys[j + 1] = self.keys[j];
            self.plans[j + 1] = self.plans[j];
        }
        self.keys[pos] = key;
        self.plans[pos] = plan;
        self.len = (self.len + 1).min(self.want);
    }

    /// Copy the held plans into `out`, best first; returns how many.
    pub(crate) fn write(&self, out: &mut [Plan]) -> usize {
        out[..self.len].copy_from_slice(&self.plans[..self.len]);
        self.len
    }
}

/// One group's anchors for the `Weighted` prune: up to `want` earlier
/// survivors of the group, the earliest finishers so far, kept sorted by
/// finish (ties in arrival order). A candidate that `want` anchors
/// dominate — finish and energy both ≤ its own — has `want` candidates
/// ahead of it in the stable order by any `Weighted` score, so it cannot
/// be chosen (see [`Policy::weighted_k`]). That holds only while every
/// anchor has a lower device index than the candidate it drops, so a
/// group is a run of candidates visited in ascending index order: one
/// shard's members ([`Candidates::each`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Anchors {
    /// Once `want` anchors are held, their latest finish and greatest
    /// energy: a candidate at or past both is dominated by every anchor,
    /// and no other candidate is dominated by `want` of them. `+∞`
    /// until then (nothing is dropped), `−∞` when nothing is wanted.
    bar: (f64, f64),
    held: [Estimate; MAX_REPLICAS],
    len: usize,
}

impl Anchors {
    /// A class no candidate has reached yet in this placement.
    pub(crate) fn empty(want: usize) -> Self {
        let bar = if want == 0 {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        Anchors {
            bar: (bar, bar),
            held: [Estimate::new(Seconds::ZERO, Joule::ZERO); MAX_REPLICAS],
            len: 0,
        }
    }

    /// Whether `want` anchors dominate `e`: finish and energy both at or
    /// past the bar. Dominating a chunk's lower corner, they dominate
    /// every member of it.
    #[inline(always)]
    fn dominate(&self, e: Estimate) -> bool {
        e.finish.0 >= self.bar.0 && e.energy.0 >= self.bar.1
    }

    /// Whether `e` survives: fewer than `want` anchors dominate it. A
    /// survivor becomes an anchor when fewer than `want` are held or it
    /// finishes strictly before the last of them, which it displaces.
    ///
    /// Inlined by force: called out of line, the register saves around
    /// the call cost the whole loop more than the rare update inlined.
    #[inline(always)]
    fn admit(&mut self, e: Estimate, want: usize) -> bool {
        if self.dominate(e) {
            return false;
        }
        let finish = e.finish.0;
        if self.len == want {
            if finish >= self.held[want - 1].finish.0 {
                return true;
            }
            self.len -= 1;
        }
        let mut pos = self.len;
        while pos > 0 && finish < self.held[pos - 1].finish.0 {
            self.held[pos] = self.held[pos - 1];
            pos -= 1;
        }
        self.held[pos] = e;
        self.len += 1;
        if self.len == want {
            let held = &self.held[..want];
            let energy = held
                .iter()
                .fold(f64::NEG_INFINITY, |hi, a| hi.max(a.energy.0));
            self.bar = (held[want - 1].finish.0, energy);
        }
        true
    }
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

fn normalize(v: f64, lo: f64, hi: f64) -> f64 {
    if (hi - lo).abs() < 1e-12 {
        0.0
    } else {
        (v - lo) / (hi - lo)
    }
}

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

    /// Top-k selection over every candidate of an unpruned placement
    /// ([`DevicePools::plan_k`](crate::pool::DevicePools::plan_k)):
    /// semantically identical to [`device_estimates_into`] +
    /// [`Scheduler::select_k`] over the live devices, but everything a
    /// candidate shares with its spec class was priced once per *class*
    /// ([`SpecClasses::price`](crate::classes::SpecClasses::price)), and
    /// what the security plan and the topology charge add is folded into
    /// each candidate's plan *before* scoring, so the estimate the policy
    /// ranks is the true cost.
    ///
    /// Selection happens in the pass that prices: each candidate is
    /// scored and offered to a [`TopK`] of ≤ 3 plans, which keeps exactly
    /// the prefix of the stable sort by score that the O(D·k) repeated
    /// minimum would pick, whatever order the candidates arrive in.
    /// `Weighted`, whose min-max norm needs every candidate first, prunes
    /// and then scores ([`Policy::weighted_k`]).
    ///
    /// A Pareto objective in `energy` *replaces* this policy's scoring,
    /// and a placement that had to relax its bound or cap bumps the
    /// state's relaxation counter. The pass keeps two [`TopK`]s and a
    /// feasible count:
    ///
    /// * **Min energy within a makespan bound**: the `k` cheapest in
    ///   energy among candidates predicted to finish by the bound, and
    ///   the `k` earliest finishers overall. The first wins when at least
    ///   `k` candidates meet the bound; otherwise the second does and the
    ///   bound counts one relaxation (the engine never refuses to place
    ///   work).
    /// * **Min makespan under a power cap**: the `k` earliest finishers
    ///   among candidates whose busy draw respects the cap, and the `k`
    ///   lowest-power candidates overall, chosen the same way (one cap
    ///   relaxation on fallback).
    ///
    /// Fills `out` with the chosen `(device index, start, duration)`
    /// plans in selection order, for the caller to commit with
    /// [`Device::execute_planned`], and returns `(slots filled,
    /// candidates evaluated)`: the first is `min(out.len(), candidates)`,
    /// the second counts every candidate priced, pruned or not.
    #[inline(always)]
    pub(crate) fn select_plans(
        self,
        candidates: Candidates<'_>,
        energy: &mut EnergyState,
        survivors: &mut Vec<(Plan, Estimate)>,
        out: &mut [Plan],
    ) -> (usize, u64) {
        use crate::energy::EnergyObjective::{MinEnergyWithinMakespan, MinMakespanUnderPowerCap};
        let want = out.len().min(MAX_REPLICAS);
        match energy.objective {
            None if self.needs_norm() => self.weighted_k(candidates, survivors, out),
            None => {
                let mut best = TopK::new(want);
                let m = candidates.each(
                    #[inline(always)]
                    |c| best.offer_chunk(c, |e| self.score(e, &ScoreNorm::IDENTITY)),
                );
                (best.write(out), m)
            }
            Some(MinEnergyWithinMakespan(bound)) => {
                let (mut cheapest, mut fastest) = (TopK::new(want), TopK::new(want));
                let mut feasible = 0;
                let m = candidates.each(
                    #[inline(always)]
                    |c| {
                        // The fallback is dead once `want` candidates meet
                        // the bound: the feasible count only grows.
                        let fits = (0..c.len())
                            .filter(|&i| c.estimate(i).finish.0 <= bound.0)
                            .count();
                        if !(fits > 0 && cheapest.admits(c.lo.energy.0, c.first())
                            || feasible < want && fastest.admits(c.lo.finish.0, c.first()))
                        {
                            feasible += fits;
                            return;
                        }
                        for i in 0..c.len() {
                            let (plan, e) = (c.plan(i), c.estimate(i));
                            if e.finish.0 <= bound.0 {
                                feasible += 1;
                                cheapest.offer(e.energy.0, plan);
                            }
                            if feasible < want {
                                fastest.offer(e.finish.0, plan);
                            }
                        }
                    },
                );
                let pick = if feasible >= want.min(m as usize) {
                    cheapest
                } else {
                    energy.bound_relaxations += 1;
                    fastest
                };
                (pick.write(out), m)
            }
            Some(MinMakespanUnderPowerCap(cap)) => {
                let (mut capped, mut frugal) = (TopK::new(want), TopK::new(want));
                let mut feasible = 0;
                let m = candidates.each(
                    #[inline(always)]
                    |c| {
                        for i in 0..c.len() {
                            let plan = c.plan(i);
                            if c.power.0 <= cap.0 {
                                feasible += 1;
                                capped.offer(c.estimate(i).finish.0, plan);
                            }
                            if feasible < want {
                                frugal.offer(c.power.0, plan);
                            }
                        }
                    },
                );
                let pick = if feasible >= want.min(m as usize) {
                    capped
                } else {
                    energy.cap_relaxations += 1;
                    frugal
                };
                (pick.write(out), m)
            }
        }
    }

    /// `Weighted` placement: price, prune, then score. The pass folds
    /// the [`ScoreNorm`] bounds over every candidate (f64 min/max folds
    /// are order-independent), but keeps a candidate's plan and estimate
    /// in `survivors` (sized to the fleet) only when fewer than `k` of
    /// its group's [`Anchors`] — one inline set, emptied when a group
    /// begins — dominate it. For `w ∈ [0, 1]` the score is non-decreasing
    /// in finish and in energy, rounding included, so a dropped candidate
    /// has `k` candidates ahead of it in the stable order, and the top
    /// `k` of the survivors — a handful per group on a fleet whose
    /// classes share one energy, scored once the norm is known — is the
    /// top `k` of all.
    fn weighted_k(
        self,
        candidates: Candidates<'_>,
        survivors: &mut Vec<(Plan, Estimate)>,
        out: &mut [Plan],
    ) -> (usize, u64) {
        // The prune's precondition: the score is monotone in finish and
        // energy only for a weight in [0, 1] (`Runtime` validates it at
        // run and step entry).
        debug_assert!(
            matches!(self, Policy::Weighted(w) if (0.0..=1.0).contains(&w)),
            "{self:?} is not a validated weighted policy"
        );
        let want = out.len().min(MAX_REPLICAS);
        survivors.clear();
        survivors.reserve(candidates.fleet_size());
        let mut anchors = (usize::MAX, Anchors::empty(want));
        let (mut t_lo, mut t_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut e_lo, mut e_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let m = candidates.each(
            #[inline(always)]
            |c| {
                let (lo, hi) = (c.lo, c.hi);
                (t_lo, t_hi) = (least(t_lo, lo.finish.0), greatest(t_hi, hi.finish.0));
                (e_lo, e_hi) = (least(e_lo, lo.energy.0), greatest(e_hi, hi.energy.0));
                if anchors.0 != c.shard {
                    anchors = (c.shard, Anchors::empty(want));
                }
                // Dominated at its lower corner, no member of the chunk
                // survives, and the anchors stay as they are.
                if anchors.1.dominate(lo) {
                    return;
                }
                for i in 0..c.len() {
                    let e = c.estimate(i);
                    if anchors.1.admit(e, want) {
                        survivors.push((c.plan(i), e));
                    }
                }
            },
        );
        let norm = ScoreNorm::from_bounds(t_lo, t_hi, e_lo, e_hi);
        let mut best = TopK::new(want);
        for (plan, e) in survivors.iter() {
            best.offer(self.score(e, &norm), *plan);
        }
        (best.write(out), m)
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
pub(crate) mod tests {
    use super::*;
    use crate::classes::SpecClasses;
    use crate::pool::{DevicePools, PoolConfig};
    use legato_hw::device::{DeviceId, DeviceSpec};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::Rng;

    fn estimates() -> Vec<Estimate> {
        vec![
            Estimate::new(Seconds(10.0), Joule(5.0)),  // slow, frugal
            Estimate::new(Seconds(1.0), Joule(100.0)), // fast, hungry
            Estimate::new(Seconds(4.0), Joule(20.0)),  // balanced
        ]
    }

    /// Reference ranking the selection routine is checked against: all
    /// candidate indices, stable-sorted by score (ties keep index order).
    fn rank(policy: Policy, estimates: &[Estimate]) -> Vec<usize> {
        let norm = ScoreNorm::from_estimates(estimates);
        let mut order: Vec<usize> = (0..estimates.len()).collect();
        order.sort_by(|&a, &b| {
            policy
                .score(&estimates[a], &norm)
                .total_cmp(&policy.score(&estimates[b], &norm))
        });
        order
    }

    #[test]
    fn place_follows_policy_axis() {
        let ests = estimates();
        assert_eq!(Policy::Performance.place(&ests), Some(1));
        assert_eq!(Policy::Energy.place(&ests), Some(0));
    }

    #[test]
    fn weighted_endpoints_match_pure_policies() {
        let ests = estimates();
        assert_eq!(Policy::Weighted(0.0).place(&ests), Some(1));
        assert_eq!(Policy::Weighted(1.0).place(&ests), Some(0));
    }

    #[test]
    fn empty_candidates_place_nowhere() {
        assert_eq!(Policy::Performance.place(&[]), None);
    }

    #[test]
    fn ties_break_toward_first_index() {
        let ests = vec![
            Estimate::new(Seconds(2.0), Joule(4.0)),
            Estimate::new(Seconds(2.0), Joule(4.0)),
        ];
        assert_eq!(Policy::Performance.place(&ests), Some(0));
        let mut out = [usize::MAX; 2];
        assert_eq!(Policy::Energy.select_k(&ests, &mut out), 2);
        assert_eq!(out, [0, 1]);
    }

    #[test]
    fn select_k_matches_rank_prefix() {
        let ests = estimates();
        for policy in [
            Policy::Performance,
            Policy::Energy,
            Policy::Edp,
            Policy::Weighted(0.3),
        ] {
            let full = rank(policy, &ests);
            for k in 0..=ests.len() + 1 {
                let mut out = vec![usize::MAX; k];
                let filled = policy.select_k(&ests, &mut out);
                assert_eq!(filled, k.min(ests.len()));
                assert_eq!(&out[..filled], &full[..filled], "policy {policy:?}, k {k}");
            }
        }
    }

    #[test]
    fn select_k_breaks_ties_toward_first_index_like_rank() {
        let ests = vec![
            Estimate::new(Seconds(2.0), Joule(4.0)),
            Estimate::new(Seconds(2.0), Joule(4.0)),
            Estimate::new(Seconds(1.0), Joule(9.0)),
            Estimate::new(Seconds(2.0), Joule(4.0)),
        ];
        let mut out = [usize::MAX; 3];
        let filled = Policy::Performance.select_k(&ests, &mut out);
        assert_eq!(filled, 3);
        assert_eq!(out, [2, 0, 1]);
        assert_eq!(&rank(Policy::Performance, &ests)[..3], &out);
    }

    #[test]
    fn select_k_on_empty_inputs() {
        let ests = estimates();
        let mut empty_out: [usize; 0] = [];
        assert_eq!(Policy::Energy.select_k(&ests, &mut empty_out), 0);
        let mut out = [usize::MAX; 2];
        assert_eq!(Policy::Energy.select_k(&[], &mut out), 0);
        assert_eq!(out, [usize::MAX; 2], "nothing written for no candidates");
    }

    #[test]
    fn migrate_requires_hysteresis_margin() {
        let norm = ScoreNorm::from_scale(Seconds(10.0), Joule(10.0));
        let stay = Estimate::new(Seconds(10.0), Joule(10.0));
        // 5 % better: below the 10 % threshold — stay.
        let slightly = vec![Estimate::new(Seconds(9.5), Joule(9.5))];
        assert_eq!(
            Policy::Weighted(0.5).migrate(&stay, &slightly, &norm, 0.10),
            None
        );
        // 50 % better: migrate.
        let much = vec![Estimate::new(Seconds(5.0), Joule(5.0))];
        assert_eq!(
            Policy::Weighted(0.5).migrate(&stay, &much, &norm, 0.10),
            Some(0)
        );
    }

    #[test]
    fn migrate_with_no_alternatives_stays() {
        let norm = ScoreNorm::from_scale(Seconds(1.0), Joule(1.0));
        let stay = Estimate::new(Seconds(1.0), Joule(1.0));
        assert_eq!(Policy::Energy.migrate(&stay, &[], &norm, 0.1), None);
    }

    #[test]
    fn score_norm_from_scale_divides_by_reference() {
        let norm = ScoreNorm::from_scale(Seconds(4.0), Joule(8.0));
        assert!((norm.time(2.0) - 0.5).abs() < 1e-12);
        assert!((norm.energy(2.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_norm_is_zero() {
        let ests = vec![Estimate::new(Seconds(3.0), Joule(3.0))];
        let norm = ScoreNorm::from_estimates(&ests);
        assert_eq!(norm.time(3.0), 0.0);
        assert_eq!(norm.energy(3.0), 0.0);
    }

    /// 1–40 devices from ≤ 5 specs: device 0 is alone in its class, the
    /// rest draw (with duplicates) from up to four.
    pub(crate) fn random_fleet(rng: &mut SmallRng) -> Vec<Device> {
        let pool = [
            DeviceSpec::xeon_x86(),
            DeviceSpec::gtx1080(),
            DeviceSpec::arm64(),
            DeviceSpec::fpga_kintex(),
        ];
        let kinds = rng.gen_range(1..=pool.len());
        let mut devices = vec![Device::new(DeviceId(0), DeviceSpec::jetson_soc())];
        for i in 1..rng.gen_range(1..=40u64) {
            let spec = pool[rng.gen_range(0..kinds)].clone();
            devices.push(Device::new(DeviceId(i), spec));
        }
        devices
    }

    /// 10–49 devices, one class of 9–40 members among them — full chunks
    /// and a partial tail of the busy column, which a placement prices
    /// eight at a time — beside a singleton class (device 0) and up to
    /// eight devices of other specs, every index past 0 shuffled.
    fn wide_fleet(rng: &mut SmallRng) -> Vec<Device> {
        let pool = [
            DeviceSpec::xeon_x86(),
            DeviceSpec::gtx1080(),
            DeviceSpec::arm64(),
            DeviceSpec::fpga_kintex(),
        ];
        let wide = rng.gen_range(0..pool.len());
        let mut specs = vec![pool[wide].clone(); rng.gen_range(9..=40)];
        for _ in 0..rng.gen_range(0..=8) {
            specs.push(pool[rng.gen_range(0..pool.len())].clone());
        }
        for i in (1..specs.len()).rev() {
            specs.swap(i, rng.gen_range(0..=i));
        }
        let mut devices = vec![Device::new(DeviceId(0), DeviceSpec::jetson_soc())];
        for spec in specs {
            devices.push(Device::new(DeviceId(devices.len() as u64), spec));
        }
        devices
    }

    pub(crate) fn policy_strategy() -> impl Strategy<Value = Policy> {
        (0u8..6).prop_map(|sel| match sel {
            0 => Policy::Performance,
            1 => Policy::Energy,
            2 => Policy::Edp,
            3 => Policy::Weighted(0.0),
            4 => Policy::Weighted(0.5),
            _ => Policy::Weighted(1.0),
        })
    }

    proptest! {
        /// `place`, `select_k` and `migrate` are one loop, and the
        /// one-pass `TopK` keeps its prefix: on random estimates drawn
        /// from a 4 × 4 grid (so exact score ties are the norm, not the
        /// exception) each of them agrees with the stable-sort reference
        /// ranking.
        #[test]
        fn every_selection_agrees_with_the_stable_sort_reference(
            grid in prop::collection::vec((1u8..5, 1u8..5), 0..12),
            policy in policy_strategy(),
            k in 0usize..5,
        ) {
            let ests: Vec<Estimate> = grid
                .iter()
                .map(|&(t, e)| Estimate::new(Seconds(f64::from(t)), Joule(f64::from(e))))
                .collect();
            let reference = rank(policy, &ests);
            let want = k.min(ests.len());

            let mut selected = vec![usize::MAX; k];
            prop_assert_eq!(policy.select_k(&ests, &mut selected), want);
            prop_assert_eq!(&selected[..want], &reference[..want]);

            let mut one = [usize::MAX];
            let filled = policy.select_k(&ests, &mut one);
            prop_assert_eq!(policy.place(&ests), (filled == 1).then_some(one[0]));
            prop_assert_eq!(policy.place(&ests), reference.first().copied());

            let norm = ScoreNorm::from_estimates(&ests);
            let score = |i: usize| policy.score(&ests[i], &norm);
            let mut picked = vec![usize::MAX; k];
            let keyed = pick_k_by(&ests, |i, _| Some(score(i)), &mut picked);
            prop_assert_eq!(keyed, want);
            prop_assert_eq!(&picked, &selected);

            // The one-pass accumulator keeps the same prefix, whether the
            // candidates arrive in index order or not (the search visits
            // shards out of index order).
            let kept = want.min(MAX_REPLICAS);
            for reversed in [false, true] {
                let mut top = TopK::new(k);
                let mut offer = |i: usize| top.offer(score(i), (i, Seconds::ZERO, Seconds::ZERO));
                if reversed {
                    (0..ests.len()).rev().for_each(&mut offer);
                } else {
                    (0..ests.len()).for_each(&mut offer);
                }
                let mut plans = [(usize::MAX, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS];
                prop_assert_eq!(top.write(&mut plans), kept);
                let ids: Vec<usize> = plans[..kept].iter().map(|p| p.0).collect();
                prop_assert_eq!(&ids[..], &reference[..kept]);
            }

            // Hysteresis 0: move to `place`'s pick exactly when it scores
            // strictly below staying.
            for &(t, e) in &[(0.5, 0.5), (2.0, 2.0), (9.0, 9.0)] {
                let stay = Estimate::new(Seconds(t), Joule(e));
                let expected = policy
                    .place(&ests)
                    .filter(|&i| score(i) < policy.score(&stay, &norm));
                prop_assert_eq!(policy.migrate(&stay, &ests, &norm, 0.0), expected);
            }
        }
    }

    /// Constrained top-k selection for a Pareto
    /// [`EnergyObjective`](crate::energy::EnergyObjective) over a written-out
    /// candidate list, the reference the placement search's one-pass
    /// selection is checked against
    /// (`the_scan_matches_a_per_device_reference`):
    ///
    /// * **Min energy within a makespan bound** — when at least `k`
    ///   candidates are predicted to finish by the bound, pick the `k`
    ///   cheapest of them in energy; otherwise fall back to the `k`
    ///   earliest finishers over *all* candidates and count one bound
    ///   relaxation.
    /// * **Min makespan under a power cap** — when at least `k` candidates'
    ///   busy draw respects the cap, pick the `k` earliest finishers among
    ///   them; otherwise fall back to the `k` lowest-power candidates and
    ///   count one cap relaxation.
    ///
    /// A count pass, then one repeated minimum (`pick_k_by`) per slot.
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
                let in_bound = |e: &Estimate| e.finish.0 <= bound.0;
                let feasible = estimates.iter().filter(|e| in_bound(e)).count();
                if feasible >= want {
                    pick_k_by(estimates, |_, e| in_bound(e).then_some(e.energy.0), out)
                } else {
                    state.bound_relaxations += 1;
                    pick_k_by(estimates, |_, e| Some(e.finish.0), out)
                }
            }
            MinMakespanUnderPowerCap(cap) => {
                let power = |c: usize| devices[candidates[c]].spec.busy_power.0;
                let feasible = (0..estimates.len()).filter(|&c| power(c) <= cap.0).count();
                if feasible >= want {
                    let capped_finish = |c, e: &Estimate| (power(c) <= cap.0).then_some(e.finish.0);
                    pick_k_by(estimates, capped_finish, out)
                } else {
                    state.cap_relaxations += 1;
                    pick_k_by(estimates, |c, _| Some(power(c)), out)
                }
            }
        }
    }

    proptest! {
        /// The one placement search against the loops it replaced:
        /// price every device with its own `spec.time_for`, collect
        /// estimates, plans and candidates, then walk them again for the
        /// bounds (`select_k`) or hand them to `pick_k_pareto`. Same devices,
        /// same order, same `(start, duration)` bits and relaxation
        /// counters, and every candidate counted unless the search
        /// prunes — over fleets with duplicate specs and a singleton
        /// class, busy timelines, departed devices, security plans
        /// (ineligible devices, producer and attestation exceptions),
        /// one pool or random pool memberships whose device indices
        /// interleave, and per-pool topology charges. The search prunes
        /// exactly when a membership is set and no security plan or
        /// objective is.
        #[test]
        fn the_scan_matches_a_per_device_reference(
            seed in any::<u64>(),
            policy in policy_strategy(),
            objective in 0u8..3,
            k in 0usize..4,
            wide in any::<bool>(),
        ) {
            use crate::energy::{EnergyObjective, EnergyState};
            use crate::regions::RegionTable;
            use crate::security::{prepare_oracle, SecurityState};
            use legato_core::requirements::SecurityLevel;
            use legato_core::task::AccessMode;
            use legato_core::units::{Bytes, Watt};
            use rand::SeedableRng;

            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut devices, busy_share) = if wide {
                (wide_fleet(&mut rng), 0.5)
            } else {
                (random_fleet(&mut rng), 0.7)
            };
            let n = devices.len();
            for d in &mut devices {
                if rng.gen_bool(busy_share) {
                    let backlog = Work::flops(rng.gen_range(1e9..5e11));
                    d.execute(Seconds::ZERO, backlog, TaskKind::Compute);
                }
            }
            let avail: Option<Vec<bool>> = rng
                .gen_bool(0.5)
                .then(|| (0..n).map(|_| rng.gen_bool(0.8)).collect());
            // Each device joins one of up to four pools at random, so the
            // pools' indices interleave; without a membership the fleet
            // is one pool.
            let membership: Option<Vec<Vec<usize>>> = rng.gen_bool(0.5).then(|| {
                let mut pools = vec![Vec::new(); rng.gen_range(1..=4)];
                for d in 0..n {
                    let p = rng.gen_range(0..pools.len());
                    pools[p].push(d);
                }
                pools.retain(|p| !p.is_empty());
                pools
            });
            let mut pool_of = vec![0; n];
            for (p, pool) in membership.iter().flatten().enumerate() {
                pool.iter().for_each(|&d| pool_of[d] = p);
            }
            let pool_count = membership.as_ref().map_or(1, Vec::len);
            let topo: Option<(Vec<Seconds>, Vec<usize>)> = rng.gen_bool(0.5).then(|| {
                let charge = Seconds(rng.gen_range(0.0..0.2));
                (
                    (0..pool_count).map(|_| if rng.gen_bool(0.5) { charge } else { Seconds::ZERO }).collect(),
                    pool_of,
                )
            });
            let work = Work::new(rng.gen_range(1e9..1e11), Bytes::mib(rng.gen_range(0..512)));
            let kind = [TaskKind::Compute, TaskKind::Inference, TaskKind::Io][rng.gen_range(0..3)];
            let ready_at = Seconds(rng.gen_range(0.0..0.5));
            let mut classes = SpecClasses::new(&devices);
            classes.price(work, kind);

            // A security state with history: attested devices, sealed
            // regions produced here and there.
            let mut sec = SecurityState::default();
            let sizes: Vec<Bytes> = (0..4).map(|r| Bytes::mib(8 << r)).collect();
            sec.activate(&devices);
            let m = sec.ensure_enclaves(b"image").expect("one image fits");
            let mut regions = RegionTable::sized(&sizes);
            sec.prepare(&classes, &regions, [], SecurityLevel::Enclave, m);
            for (d, device) in devices.iter().enumerate() {
                if device.spec.tee.has_enclave() && rng.gen_bool(0.5) {
                    sec.commit(d, classes.class_of(d)).expect("attests");
                }
            }
            for slot in 0..rng.gen_range(0..4u64) {
                let wrote = [(slot as u32, AccessMode::Out)];
                regions.record(wrote, rng.gen_range(0..n), SecurityLevel::Confidential);
            }
            let reads: Vec<_> = (0..4).map(|slot| (slot, AccessMode::In)).collect();
            let level = [SecurityLevel::Public, SecurityLevel::Enclave][rng.gen_range(0..2)];
            let extras = if rng.gen_bool(0.7) {
                prepare_oracle::extras(&sec, &regions, &devices, &reads, level, m)
            } else {
                None
            };
            let planned =
                extras.is_some() && sec.prepare(&classes, &regions, reads.iter().copied(), level, m);
            prop_assert_eq!(planned, extras.is_some());

            // The reference: one roofline per device, three buffers.
            let (mut ests, mut plans, mut cands) = (Vec::new(), Vec::new(), Vec::new());
            for (i, d) in devices.iter().enumerate() {
                if avail.as_ref().is_some_and(|a| !a[i]) {
                    continue;
                }
                let mut extra = match &extras {
                    None => Seconds::ZERO,
                    Some(extras) => match extras[i] {
                        Some(extra) => extra,
                        None => continue,
                    },
                };
                if let Some((pool_extras, pool_of)) = &topo {
                    extra += pool_extras[pool_of[i]];
                }
                let start = ready_at.max(d.busy_until());
                let dur = d.spec.time_for(work, kind) + extra;
                ests.push(Estimate::new(start + dur, d.spec.busy_power * dur));
                plans.push((start, dur));
                cands.push(i);
            }
            let objective = match objective {
                0 => None,
                1 => Some(EnergyObjective::MinEnergyWithinMakespan(Seconds(
                    rng.gen_range(0.0..2.0),
                ))),
                _ => Some(EnergyObjective::MinMakespanUnderPowerCap(Watt(
                    rng.gen_range(5.0..200.0),
                ))),
            };
            let state = EnergyState { objective, ..EnergyState::default() };
            let (mut expected, mut actual) = (state.clone(), state);
            let mut chosen = [usize::MAX; 3];
            let filled = match objective {
                Some(obj) => {
                    pick_k_pareto(obj, &mut expected, &devices, &ests, &cands, &mut chosen[..k])
                }
                None => policy.select_k(&ests, &mut chosen[..k]),
            };

            let partitioned = membership.is_some();
            let mut pools = match membership {
                Some(pools) => {
                    DevicePools::new(PoolConfig::from_membership(pools), &classes, &devices)
                        .expect("a partition of the fleet")
                }
                None => DevicePools::one_pool(&classes, &devices),
            };
            for (d, _) in avail.iter().flatten().enumerate().filter(|(_, &up)| !up) {
                pools.remove_device(d);
            }
            crate::pool::tests::check_mirror(&pools, &devices)?;
            let mut out = [(usize::MAX, Seconds::ZERO, Seconds::ZERO); 3];
            let (got, evaluated, pruned) = pools.plan_k(
                policy,
                &classes,
                ready_at,
                topo.as_ref().map(|(extras, _)| extras.as_slice()),
                planned.then_some(&sec.plan),
                &mut actual,
                &mut Vec::new(),
                &mut out[..k],
            );
            prop_assert_eq!(pruned, partitioned && !planned && objective.is_none());
            prop_assert_eq!(got, filled);
            if pruned {
                prop_assert!(evaluated <= ests.len() as u64);
            } else {
                prop_assert_eq!(evaluated, ests.len() as u64);
            }
            for (slot, &c) in chosen[..filled].iter().enumerate() {
                let (d, start, dur) = out[slot];
                prop_assert_eq!(
                    (d, start.0.to_bits(), dur.0.to_bits()),
                    (cands[c], plans[c].0 .0.to_bits(), plans[c].1 .0.to_bits())
                );
            }
            prop_assert_eq!(
                (actual.bound_relaxations, actual.cap_relaxations),
                (expected.bound_relaxations, expected.cap_relaxations)
            );
        }
    }

    fn devices() -> Vec<Device> {
        vec![
            Device::new(DeviceId(0), DeviceSpec::xeon_x86()),
            Device::new(DeviceId(1), DeviceSpec::gtx1080()),
            Device::new(DeviceId(2), DeviceSpec::fpga_kintex()),
            Device::new(DeviceId(3), DeviceSpec::arm64()),
        ]
    }

    /// Estimates of the reference inference task on `devices`.
    fn inference_estimates(devices: &[Device]) -> Vec<Estimate> {
        let mut estimates = Vec::new();
        device_estimates_into(
            devices,
            Work::flops(66e9),
            TaskKind::Inference,
            Seconds::ZERO,
            &mut estimates,
        );
        estimates
    }

    /// The policy's first choice for the reference inference task.
    fn best(policy: Policy, devices: &[Device]) -> usize {
        policy
            .place(&inference_estimates(devices))
            .expect("devices present")
    }

    /// `policy`'s placement of the reference inference task on `devices`
    /// (ready at zero, one pool), held to the reference: `select_k` over
    /// the per-device estimates picks the same devices in the same order,
    /// each plan is the device's own `(max(0, busy_until), time_for)`,
    /// and every device is counted as evaluated. Returns the chosen
    /// devices and how many candidates survived the `Weighted` prune.
    fn weighted_against_select_k(
        policy: Policy,
        devices: &[Device],
        k: usize,
    ) -> (Vec<usize>, usize) {
        let (work, kind) = (Work::flops(66e9), TaskKind::Inference);
        let mut classes = SpecClasses::new(devices);
        classes.price(work, kind);
        let mut reference = [usize::MAX; MAX_REPLICAS];
        let filled = policy.select_k(&inference_estimates(devices), &mut reference[..k]);
        let mut survivors = Vec::new();
        let mut out = [(usize::MAX, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS];
        let (got, evaluated, _) = DevicePools::one_pool(&classes, devices).plan_k(
            policy,
            &classes,
            Seconds::ZERO,
            None,
            None,
            &mut EnergyState::default(),
            &mut survivors,
            &mut out[..k],
        );
        assert_eq!(got, filled, "{policy:?}, k {k}");
        assert_eq!(evaluated, devices.len() as u64);
        for (&(d, start, dur), &expected) in out[..got].iter().zip(&reference) {
            assert_eq!(d, expected, "{policy:?}, k {k}: {:?}", &out[..got]);
            let plan = (
                devices[d].busy_until(),
                devices[d].spec.time_for(work, kind),
            );
            assert_eq!(
                (start.0.to_bits(), dur.0.to_bits()),
                (plan.0 .0.to_bits(), plan.1 .0.to_bits())
            );
        }
        (out[..got].iter().map(|p| p.0).collect(), survivors.len())
    }

    /// A device of `spec` busy until `at` (zero-length work planned there).
    fn busy_until(id: u64, spec: DeviceSpec, at: f64) -> Device {
        let mut d = Device::new(DeviceId(id), spec);
        d.execute_planned(Seconds(at), Seconds::ZERO);
        d
    }

    const WEIGHTS: [f64; 4] = [0.0, 0.3, 0.5, 1.0];

    /// The prune's worst case: in one class, each device frees up before
    /// every earlier one, so no candidate is dominated by an earlier one
    /// and all of them survive — the selection is still the reference's.
    #[test]
    fn falling_horizons_keep_every_candidate() {
        let devices: Vec<Device> = (0..8u64)
            .map(|i| busy_until(i, DeviceSpec::arm64(), (8 - i) as f64 * 0.05))
            .collect();
        for w in WEIGHTS {
            for k in 1..=3 {
                let (_, kept) = weighted_against_select_k(Policy::Weighted(w), &devices, k);
                assert_eq!(kept, devices.len(), "w {w}, k {k}");
            }
        }
    }

    /// The prune's best case: on an idle fleet a class's members tie on
    /// finish and energy, so the first `k` of each class survive and
    /// nothing else — and the second and third replicas still come from
    /// the best class when it has them.
    #[test]
    fn an_idle_fleet_keeps_the_first_k_of_each_class() {
        let specs = [
            DeviceSpec::xeon_x86(),
            DeviceSpec::gtx1080(),
            DeviceSpec::fpga_kintex(),
            DeviceSpec::arm64(),
        ];
        let devices: Vec<Device> = (0..12u64)
            .map(|i| Device::new(DeviceId(i), specs[i as usize % 4].clone()))
            .collect();
        for w in WEIGHTS {
            for k in 1..=3 {
                let (chosen, kept) = weighted_against_select_k(Policy::Weighted(w), &devices, k);
                assert_eq!(kept, 4 * k, "w {w}, k {k}");
                let class = chosen[0] % 4;
                assert!(
                    chosen.iter().all(|d| d % 4 == class),
                    "w {w}, k {k}: {chosen:?}"
                );
            }
        }
    }

    /// Two frugal devices whose distinct finishes round to one
    /// `Weighted(0.3)` score: the lower index, which finishes later, must
    /// win. Neither dominates the other in index order, so both survive,
    /// and the survivors are scored exactly with ties to the lower index.
    /// The pair of horizons is found by search (a fast, hungry idle GPU
    /// sets the finish floor and a busy FPGA the ceiling).
    #[test]
    fn a_later_finish_that_scores_the_same_wins_on_index() {
        let policy = Policy::Weighted(0.3);
        let fleet = |b0: f64, b1: f64| {
            vec![
                busy_until(0, DeviceSpec::fpga_kintex(), b0),
                busy_until(1, DeviceSpec::fpga_kintex(), b1),
                Device::new(DeviceId(2), DeviceSpec::gtx1080()),
                busy_until(3, DeviceSpec::fpga_kintex(), 10.0),
            ]
        };
        let (b0, b1) = (1..=100u64)
            .flat_map(|s| {
                let b0 = s as f64 * 0.01;
                (1..=64).map(move |ulps| (b0, f64::from_bits(b0.to_bits() - ulps)))
            })
            .find(|&(b0, b1)| {
                let ests = inference_estimates(&fleet(b0, b1));
                let norm = ScoreNorm::from_estimates(&ests);
                let score = |e| policy.score(e, &norm).to_bits();
                ests[0].finish.0 > ests[1].finish.0 && score(&ests[0]) == score(&ests[1])
            })
            .expect("two horizons whose finishes differ but score the same");
        let devices = fleet(b0, b1);
        for k in 1..=3 {
            let (chosen, _) = weighted_against_select_k(policy, &devices, k);
            let pair = k.min(2);
            assert_eq!(chosen[..pair], [0, 1][..pair], "k {k}: {chosen:?}");
        }
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
        let mut order = [usize::MAX; 4];
        let filled = Policy::Energy.select_k(&inference_estimates(&devices()), &mut order);
        assert_eq!(filled, 4);
        assert_eq!(order[0], 2);
        // Every index appears exactly once.
        order.sort_unstable();
        assert_eq!(order, [0, 1, 2, 3]);
    }

    #[test]
    fn empty_devices_gives_none() {
        assert_eq!(Policy::Performance.place(&inference_estimates(&[])), None);
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
        // A weight no run would accept (`validate` refuses it before the
        // first placement) still scores to some device, not a panic.
        for w in [1.5, f64::NAN] {
            assert!(Policy::Weighted(w).validate().is_err());
            assert!(best(Policy::Weighted(w), &d) < d.len());
        }
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
