//! Failure-recovery policy knobs.
//!
//! PR 3's crash recovery hardcoded its constants: an 8 s migration
//! rebuild horizon, a 1.5 s cloud-liveness heartbeat, and a 2 s → 30 s
//! exponential re-offload backoff, all buried in `session.rs` /
//! `netctl.rs`. [`RecoveryConfig`] hoists them into one place and adds
//! the two recovery mechanisms this layer grew later:
//!
//! * **Checkpointed re-offload** ([`RecoveryConfig::checkpoint_interval`]):
//!   while a node set runs remotely, the session periodically streams a
//!   compact snapshot of the offloaded state over the migration TCP
//!   path. When the remote crashes, the rebuild only has to cover the
//!   time since the last completed checkpoint instead of the full
//!   rebuild horizon — bounded re-compute instead of a cold rebuild.
//! * **Degraded-mode autonomy** ([`RecoveryConfig::degraded`]): when a
//!   blackout persists or re-offload keeps failing, the session drops
//!   the local pipeline to reduced fidelity (fewer SLAM particles,
//!   coarser DWA sampling) so the 200 ms control deadline keeps being
//!   met on vehicle silicon, and restores full fidelity — with
//!   hysteresis — once the cloud is healthy again.
//!
//! The `Default` configuration reproduces the pre-config behavior
//! byte for byte: same constants, checkpoints off, degraded mode off.

use lgv_types::prelude::*;

/// Reduced-fidelity local pipeline for riding out sustained outages.
///
/// Both thresholds are hysteresis guards: entry requires the stress
/// condition to hold continuously for [`DegradedConfig::trigger_after`],
/// and exit requires continuous health for
/// [`DegradedConfig::restore_hold`] — a link that flaps faster than
/// either window never toggles the mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedConfig {
    /// Continuous stress (blackout or exhausted re-offload backoff)
    /// required before fidelity drops.
    pub trigger_after: Duration,
    /// Continuous health required before full fidelity is restored.
    pub restore_hold: Duration,
    /// SLAM particle count while degraded (clamped to the configured
    /// count; the filter keeps its best particle across the switch).
    pub slam_particles: usize,
    /// DWA trajectory-sample budget while degraded.
    pub dwa_samples: u32,
}

impl Default for DegradedConfig {
    fn default() -> Self {
        DegradedConfig {
            trigger_after: Duration::from_secs(3),
            restore_hold: Duration::from_secs(5),
            slam_particles: 4,
            dwa_samples: 100,
        }
    }
}

/// Recovery-policy configuration, threaded through
/// [`MissionConfig`](crate::mission::MissionConfig) (and from there
/// through [`FleetConfig`](crate::fleet::FleetConfig)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// How long a crash-abandoned migration may rebuild remote state
    /// before the session falls back to cold local execution (and how
    /// long the cold fallback waits before clearing). PR 3's
    /// `REBUILD_HORIZON`.
    pub rebuild_horizon: Duration,
    /// Cloud-liveness heartbeat timeout (Algorithm 2 declares the
    /// remote dead after this much downlink silence while offloaded).
    pub heartbeat_timeout: Duration,
    /// First re-offload backoff after a failure; doubles per
    /// consecutive failure.
    pub backoff_base: Duration,
    /// Ceiling on the re-offload backoff.
    pub backoff_cap: Duration,
    /// Checkpoint cadence while offloaded. `None` disables
    /// checkpointing (the pre-checkpoint behavior).
    pub checkpoint_interval: Option<Duration>,
    /// Checkpoint size as a fraction of the full migration state
    /// (incremental snapshots are much smaller than a cold transfer).
    pub checkpoint_fraction: f64,
    /// Degraded-mode policy. `None` keeps full fidelity no matter how
    /// long the outage lasts (the pre-degraded behavior).
    pub degraded: Option<DegradedConfig>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            rebuild_horizon: crate::session::REBUILD_HORIZON,
            heartbeat_timeout: Duration::from_millis(1500),
            backoff_base: Duration::from_secs(2),
            backoff_cap: Duration::from_secs(30),
            checkpoint_interval: None,
            checkpoint_fraction: 0.25,
            degraded: None,
        }
    }
}

impl RecoveryConfig {
    /// Enable checkpointed re-offload at the given cadence.
    pub fn with_checkpoints(mut self, interval: Duration) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Enable degraded-mode autonomy with the given policy.
    pub fn with_degraded(mut self, degraded: DegradedConfig) -> Self {
        self.degraded = Some(degraded);
        self
    }

    /// The full recovery posture: 2 s checkpoints plus default
    /// degraded-mode hysteresis — what the chaos-fleet scenario runs.
    pub fn resilient() -> Self {
        RecoveryConfig::default()
            .with_checkpoints(Duration::from_secs(2))
            .with_degraded(DegradedConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_the_historical_constants() {
        let cfg = RecoveryConfig::default();
        assert_eq!(cfg.rebuild_horizon, Duration::from_secs(8));
        assert_eq!(cfg.heartbeat_timeout, Duration::from_millis(1500));
        assert_eq!(cfg.backoff_base, Duration::from_secs(2));
        assert_eq!(cfg.backoff_cap, Duration::from_secs(30));
        assert!(cfg.checkpoint_interval.is_none());
        assert!(cfg.degraded.is_none());
    }

    #[test]
    fn builders_change_only_their_own_field() {
        let base = RecoveryConfig::default();
        let ck = base.with_checkpoints(Duration::from_millis(500));
        assert_eq!(ck.checkpoint_interval, Some(Duration::from_millis(500)));
        assert_eq!(ck.degraded, None);
        assert_eq!(
            RecoveryConfig {
                checkpoint_interval: None,
                ..ck
            },
            base
        );
        let dg = base.with_degraded(DegradedConfig::default());
        assert_eq!(dg.degraded, Some(DegradedConfig::default()));
        assert_eq!(
            RecoveryConfig {
                degraded: None,
                ..dg
            },
            base
        );
    }

    #[test]
    fn resilient_enables_both_mechanisms() {
        let cfg = RecoveryConfig::resilient();
        assert_eq!(cfg.checkpoint_interval, Some(Duration::from_secs(2)));
        let d = cfg.degraded.expect("degraded mode on");
        assert!(d.restore_hold > d.trigger_after, "hysteresis is asymmetric");
        assert!(d.slam_particles >= 1 && d.dwa_samples >= 12);
    }
}
