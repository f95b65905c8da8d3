//! Device churn: elastic malleability under mid-run fleet changes.
//!
//! LEGaTO's resilience pillar includes *task-based malleability* — the
//! runtime adapts a running computation when resources appear or
//! disappear. This module supplies the churn model the engine executes
//! against:
//!
//! * a [`ChurnTrace`] of timed arrival/departure events (explicitly
//!   constructed or drawn from a seeded generator), merged into the
//!   engine's `(time, seq)` event order when a run starts;
//! * **crash departures** fail the attempts running on the lost device
//!   (charged against retry budgets, rolled back to the last FTI
//!   checkpoint when exhausted), re-launch its queued attempts through
//!   the engine's one attempt launcher (same attempt number, no retry
//!   charged), and re-spread confidential replicas across the surviving
//!   TEE pool;
//! * **planned departures** drain the device — no new placements, a
//!   frontier checkpoint through the resilience layer once its committed
//!   work finishes, then removal with zero wasted work;
//! * **arrivals** grow every per-device structure incrementally (pool
//!   shards, security platforms, fault probabilities) and re-dispatch
//!   placements that were *deferred* while no eligible device existed —
//!   a bounded wait for re-arrival instead of an immediate
//!   [`NoSecurePlacement`](crate::error::RuntimeError::NoSecurePlacement).
//!
//! Configured through
//! [`EngineConfig::with_churn`](crate::config::EngineConfig::with_churn).
//! A runtime without a churn configuration pays nothing: no event is
//! merged, no mask is consulted, and the schedule is bit-identical to
//! the churn-free engine (pinned by `tests/churn_properties.rs`).

use legato_core::task::TaskId;
use legato_core::units::Seconds;
use legato_hw::device::DeviceSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::engine::Attempt;
use crate::error::RuntimeError;

/// How a device leaves the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DepartureKind {
    /// Announced shrink: the engine drains the device (no new
    /// placements, committed work finishes, frontier checkpoint) before
    /// removing it. Zero wasted work.
    Planned,
    /// Unannounced loss: running attempts fail on the spot and queued
    /// placements must move.
    Crash,
}

/// What happens to the fleet at one trace point.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnEventKind {
    /// A new device joins the fleet (appended at the next free index).
    Arrival {
        /// Spec of the arriving device.
        spec: DeviceSpec,
        /// Pool the device joins when a pool configuration is active;
        /// `None` assigns round-robin by device index.
        pool: Option<usize>,
        /// Per-execution fault probability of the new device.
        fault_prob: f64,
    },
    /// An existing device leaves the fleet.
    Departure {
        /// Index of the departing device. Departures of unknown or
        /// already-departed devices are skipped (a trace generated
        /// against a different fleet stays safe to run).
        device: usize,
        /// Planned drain or crash.
        kind: DepartureKind,
    },
}

/// One timed fleet change.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// Virtual time at which the change happens.
    pub at: Seconds,
    /// The change itself.
    pub kind: ChurnEventKind,
}

/// A time-sorted sequence of fleet changes, merged into the engine's
/// event order when a run starts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnTrace {
    events: Vec<ChurnEvent>,
}

impl ChurnTrace {
    /// An empty trace: churn machinery armed, fleet never changes.
    #[must_use]
    pub fn new() -> Self {
        ChurnTrace::default()
    }

    /// Build a trace from explicit events, sorting them by time
    /// (stable: events at equal times keep their given order).
    #[must_use]
    pub fn from_events(mut events: Vec<ChurnEvent>) -> Self {
        events.sort_by(|a, b| a.at.0.total_cmp(&b.at.0));
        ChurnTrace { events }
    }

    /// Draw a random trace of `count` events over `(0, horizon)`,
    /// deterministic per `seed`.
    ///
    /// The generator tracks the live set it implies (starting from
    /// `initial_fleet` devices) so every departure names a device that
    /// is actually alive at that point, never drains the fleet below
    /// one device, and only emits arrivals when `arrival_specs` is
    /// non-empty. Departures crash with probability `crash_fraction`
    /// (clamped to `[0, 1]`), otherwise drain.
    #[must_use]
    pub fn seeded(
        seed: u64,
        initial_fleet: usize,
        horizon: Seconds,
        count: usize,
        arrival_specs: &[DeviceSpec],
        crash_fraction: f64,
    ) -> Self {
        let crash_fraction = crash_fraction.clamp(0.0, 1.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut times: Vec<f64> = (0..count)
            .map(|_| rng.gen_range(0.0..horizon.0.max(f64::MIN_POSITIVE)))
            .collect();
        times.sort_by(f64::total_cmp);
        // The live set the trace implies: indices into the would-be
        // device vector (arrivals append past the initial fleet).
        let mut live: Vec<usize> = (0..initial_fleet).collect();
        let mut next_index = initial_fleet;
        let mut events = Vec::with_capacity(count);
        for t in times {
            let arrive = !arrival_specs.is_empty() && (live.len() <= 1 || rng.gen_bool(0.5));
            if arrive {
                let spec = arrival_specs[rng.gen_range(0..arrival_specs.len())].clone();
                live.push(next_index);
                next_index += 1;
                events.push(ChurnEvent {
                    at: Seconds(t),
                    kind: ChurnEventKind::Arrival {
                        spec,
                        pool: None,
                        fault_prob: 0.0,
                    },
                });
            } else {
                if live.len() <= 1 {
                    // No spec to arrive with and only one device left:
                    // drop the event rather than empty the fleet.
                    continue;
                }
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                let kind = if rng.gen_bool(crash_fraction) {
                    DepartureKind::Crash
                } else {
                    DepartureKind::Planned
                };
                events.push(ChurnEvent {
                    at: Seconds(t),
                    kind: ChurnEventKind::Departure {
                        device: victim,
                        kind,
                    },
                });
            }
        }
        ChurnTrace { events }
    }

    /// The events, time-sorted.
    #[must_use]
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Whether the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// Churn configuration: the trace plus the deferral window.
///
/// Attach with
/// [`EngineConfig::with_churn`](crate::config::EngineConfig::with_churn).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// The fleet changes to replay.
    pub trace: ChurnTrace,
    /// How long a task with no eligible device waits for a re-arrival
    /// before it fails ([`RuntimeError::DeferralExpired`]).
    pub defer_window: Seconds,
}

impl ChurnConfig {
    /// Churn with the default 60-simulated-second deferral window.
    #[must_use]
    pub fn new(trace: ChurnTrace) -> Self {
        ChurnConfig {
            trace,
            defer_window: Seconds(60.0),
        }
    }

    /// Set the deferral window for placements with no eligible device.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidParameter`] unless the window is finite
    /// and non-negative.
    pub fn with_defer_window(mut self, window: Seconds) -> Result<Self, RuntimeError> {
        if !window.0.is_finite() || window.0 < 0.0 {
            return Err(RuntimeError::invalid_parameter(
                "defer_window",
                format!("deferral window must be finite and non-negative, got {window}"),
            ));
        }
        self.defer_window = window;
        Ok(self)
    }
}

/// Malleability counters, reported as `Some` exactly when churn is
/// configured (uniform pillar-stats style in
/// [`RunReport`](crate::runtime::RunReport)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnStats {
    /// Devices that joined the fleet mid-run.
    pub arrivals: u64,
    /// Devices that left the fleet (planned and crash alike).
    pub departures: u64,
    /// Departures that were crashes.
    pub crashes: u64,
    /// Queued placements re-planned off a departing device.
    pub migrations: u64,
    /// Confidential attempts re-spread across the surviving TEE pool
    /// after losing a device.
    pub respreads: u64,
    /// Placements parked waiting for a device re-arrival.
    pub deferred_placements: u64,
    /// Execution time of running attempts killed by crashes (the work
    /// the retry or rollback repeats).
    pub wasted_work: Seconds,
}

/// One fleet change as the engine executes it. Trace events are named by
/// index when merged; drains and deferral timeouts append ops
/// dynamically.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChurnOp {
    /// Event `event` of the configured trace fires: an arrival or a
    /// departure, read from the trace itself.
    Trace { event: usize },
    /// A draining device's committed work has finished: checkpoint the
    /// frontier and remove it.
    DrainComplete { device: usize },
    /// A deferred placement's wait bound elapsed: if the task is still
    /// parked with this deadline, it fails.
    DeferTimeout { task: TaskId, deadline: Seconds },
}

/// A placement parked while no eligible device exists: the attempt
/// `start_attempt` re-launches when a device arrives, and the deadline
/// its timeout event must match.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeferredTask {
    pub(crate) attempt: Attempt,
    pub(crate) deadline: Seconds,
}

/// Per-runtime churn state: the configuration, the live masks the
/// scheduler consults, and the deferred-placement queue.
#[derive(Debug, Clone)]
pub(crate) struct ChurnState {
    pub(crate) config: ChurnConfig,
    /// Whether the trace has been merged into the engine's event order
    /// (once per runtime — the trace replays exactly once).
    pub(crate) merged: bool,
    /// Op payloads behind [`EventKind::Churn`] events, indexed by the
    /// event's `op` field.
    ///
    /// [`EventKind::Churn`]: crate::engine — private event kind.
    pub(crate) ops: Vec<ChurnOp>,
    /// Neither departed nor draining — the mask every placement path
    /// consults. (A device that is unavailable but has no departure time
    /// is draining: still part of the fleet, finishing committed work.)
    pub(crate) available: Vec<bool>,
    /// When device `d` joined the fleet (zero for the initial fleet);
    /// bounds its idle-energy window in the report.
    pub(crate) arrived_at: Vec<Seconds>,
    /// When device `d` left the fleet, if it has (draining devices stay
    /// until their drain completes).
    pub(crate) departed_at: Vec<Option<Seconds>>,
    /// Placements waiting for a device re-arrival.
    pub(crate) deferred: Vec<DeferredTask>,
    /// Bumped on every fleet change; the static analyzer memoizes the
    /// epoch it last linted so a grown or shrunk fleet re-lints.
    pub(crate) epoch: u64,
    pub(crate) stats: ChurnStats,
}

impl ChurnState {
    pub(crate) fn new(config: ChurnConfig, fleet: usize) -> Self {
        ChurnState {
            config,
            merged: false,
            ops: Vec::new(),
            available: vec![true; fleet],
            arrived_at: vec![Seconds::ZERO; fleet],
            departed_at: vec![None; fleet],
            deferred: Vec::new(),
            epoch: 0,
            stats: ChurnStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::xeon_x86()
    }

    #[test]
    fn from_events_sorts_by_time() {
        let trace = ChurnTrace::from_events(vec![
            ChurnEvent {
                at: Seconds(5.0),
                kind: ChurnEventKind::Departure {
                    device: 0,
                    kind: DepartureKind::Planned,
                },
            },
            ChurnEvent {
                at: Seconds(1.0),
                kind: ChurnEventKind::Arrival {
                    spec: spec(),
                    pool: None,
                    fault_prob: 0.0,
                },
            },
        ]);
        assert_eq!(trace.len(), 2);
        assert!(trace.events()[0].at < trace.events()[1].at);
    }

    #[test]
    fn seeded_is_deterministic() {
        let specs = [spec()];
        let a = ChurnTrace::seeded(7, 4, Seconds(100.0), 16, &specs, 0.5);
        let b = ChurnTrace::seeded(7, 4, Seconds(100.0), 16, &specs, 0.5);
        assert_eq!(a, b);
        let c = ChurnTrace::seeded(8, 4, Seconds(100.0), 16, &specs, 0.5);
        assert_ne!(a, c, "different seeds should draw different traces");
    }

    #[test]
    fn seeded_never_empties_the_fleet() {
        // No arrival specs: the generator may only depart, and must
        // stop before the last device.
        let trace = ChurnTrace::seeded(3, 3, Seconds(50.0), 32, &[], 1.0);
        let departures = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ChurnEventKind::Departure { .. }))
            .count();
        assert!(
            departures <= 2,
            "at most fleet-1 departures, got {departures}"
        );
    }

    #[test]
    fn seeded_departures_name_live_devices() {
        let specs = [spec()];
        let trace = ChurnTrace::seeded(11, 2, Seconds(100.0), 24, &specs, 0.3);
        let mut live: Vec<bool> = vec![true; 2];
        for ev in trace.events() {
            match &ev.kind {
                ChurnEventKind::Arrival { .. } => live.push(true),
                ChurnEventKind::Departure { device, .. } => {
                    assert!(live[*device], "departure of dead device {device}");
                    live[*device] = false;
                }
            }
        }
        assert!(live.iter().any(|&a| a));
    }

    #[test]
    fn config_rejects_malformed_knobs() {
        let cfg = ChurnConfig::new(ChurnTrace::new());
        assert!(matches!(
            cfg.clone().with_defer_window(Seconds(-1.0)),
            Err(RuntimeError::InvalidParameter { name, .. }) if name == "defer_window"
        ));
        assert!(matches!(
            cfg.clone().with_defer_window(Seconds(f64::NAN)),
            Err(RuntimeError::InvalidParameter { name, .. }) if name == "defer_window"
        ));
        let ok = cfg.with_defer_window(Seconds(5.0)).expect("valid window");
        assert_eq!(ok.defer_window, Seconds(5.0));
    }
}
