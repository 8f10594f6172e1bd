//! End-to-end mission runner (paper §VII–§VIII).
//!
//! Runs the two standard workloads — **Navigation with a map** and
//! **Exploration without a map** — on a virtual-time loop that wires
//! together every substrate in the workspace:
//!
//! * the simulated vehicle + laser (`lgv-sim`),
//! * the real algorithm implementations (`lgv-nav`, `lgv-slam`),
//! * the pub/sub middleware and cross-host switcher
//!   (`lgv-middleware`) over the simulated radio (`lgv-net`),
//! * the platform timing model pricing every node activation,
//! * the energy ledger integrating Eq. 1, and
//! * the runtime Controller applying Algorithm 1 (fine-grained
//!   migration + Eq. 2c velocity) and Algorithm 2 (network-quality
//!   switching).
//!
//! The engine itself lives in [`crate::session`] as
//! [`VehicleSession`]: this module owns the configuration and report
//! types and the single-vehicle entry points; [`crate::fleet`] runs
//! many sessions interleaved against shared cloud and radio resources.

use crate::deploy::Deployment;
use crate::model::{Goal, TimeBreakdown, VelocityModel};
use crate::policy::{PinPolicy, PolicyKind};
use crate::recovery::RecoveryConfig;
use crate::session::VehicleSession;
use lgv_net::fault::FaultSchedule;
use lgv_net::signal::WirelessConfig;
use lgv_sim::energy::EnergyReport;
use lgv_sim::world::{presets, World, WorldBuilder};
use lgv_sim::LidarConfig;
use lgv_trace::Tracer;
use lgv_types::prelude::*;

/// Which standard workload to run (paper §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Navigation with a map: AMCL + costmap + A* + DWA to a goal.
    Navigation,
    /// Exploration without a map: SLAM + frontier + costmap + DWA.
    Exploration,
}

/// Mission configuration.
#[derive(Debug, Clone)]
pub struct MissionConfig {
    /// Workload type.
    pub workload: Workload,
    /// Computation deployment (Fig. 12/13 scenario).
    pub deployment: Deployment,
    /// Algorithm 1 optimization goal.
    pub goal: Goal,
    /// Which offload-decision policy drives the placement each tick
    /// (Algorithm 1 behind the trait is the default; see
    /// [`crate::policy`]).
    pub policy: PolicyKind,
    /// Whether Algorithm 2 (real-time adjustment) is active.
    pub adaptive: bool,
    /// Whether the §VIII-E thread governor is active: scale remote
    /// parallelism down when the environment (not compute) binds the
    /// velocity, saving cloud resources.
    pub adaptive_parallelism: bool,
    /// Safety pinning (§IX extension).
    pub pins: PinPolicy,
    /// Master seed.
    pub seed: u64,
    /// Ground-truth world.
    pub world: World,
    /// Start pose.
    pub start: Pose2D,
    /// Navigation goal (ignored by Exploration).
    pub nav_goal: Point2,
    /// WAP position.
    pub wap: Point2,
    /// Radio parameters.
    pub wireless: WirelessConfig,
    /// Override the wired WAN segment latency (None = site default).
    pub wan_latency_override: Option<Duration>,
    /// Hard wall-clock cap on simulated time.
    pub max_time: Duration,
    /// DWA trajectory samples (Fig. 10's sweep axis).
    pub dwa_samples: u32,
    /// SLAM particle count (Fig. 9's sweep axis).
    pub slam_particles: usize,
    /// Eq. 2c parameters.
    pub velocity: VelocityModel,
    /// Battery capacity override in Wh (None = the vehicle profile's
    /// pack, 19.98 Wh for the Turtlebot3).
    pub battery_wh: Option<f64>,
    /// Laser sensor model (degrade for failure-injection studies).
    pub lidar: LidarConfig,
    /// Safety velocity cap while exploring unknown space (paper
    /// §VIII-D: "due to a larger number of curves and uncertainties in
    /// the path of the workload without a map, the LGV drives at a
    /// slower velocity for safety").
    pub exploration_speed_cap: f64,
    /// Record per-cycle traces (velocity, network) in the report.
    pub record_traces: bool,
    /// Scripted fault windows (blackouts, burst loss, latency spikes,
    /// corruption, remote-host crashes), applied to every channel —
    /// data links and the migration TCP path alike. Empty = no faults.
    pub faults: FaultSchedule,
    /// Failure-recovery policy: rebuild horizon, heartbeat timeout,
    /// re-offload backoff, checkpoint cadence, degraded-mode fidelity.
    /// The default reproduces the historical hardcoded constants with
    /// checkpointing and degraded mode off.
    pub recovery: RecoveryConfig,
}

impl MissionConfig {
    /// The paper's lab navigation evaluation (§VIII-D).
    pub fn navigation_lab(deployment: Deployment) -> Self {
        MissionConfig {
            workload: Workload::Navigation,
            deployment,
            goal: Goal::MissionTime,
            policy: PolicyKind::Algorithm1,
            adaptive: true,
            adaptive_parallelism: false,
            pins: PinPolicy::none(),
            seed: 42,
            world: presets::lab(),
            start: presets::lab_start(),
            nav_goal: presets::lab_goal(),
            wap: Point2::new(6.0, 9.5),
            // Lab-wide coverage: the weak zone starts beyond the room.
            wireless: WirelessConfig::default().with_weak_radius(40.0),
            wan_latency_override: None,
            max_time: Duration::from_secs(600),
            dwa_samples: 1000,
            slam_particles: 30,
            velocity: VelocityModel::default(),
            battery_wh: None,
            lidar: LidarConfig::default(),
            exploration_speed_cap: 0.3,
            record_traces: true,
            faults: FaultSchedule::none(),
            recovery: RecoveryConfig::default(),
        }
    }

    /// The paper's lab exploration evaluation (§VIII-D). Exploration
    /// covers the whole floor at exploration-capped speeds, so the
    /// time budget is larger than navigation's.
    pub fn exploration_lab(deployment: Deployment) -> Self {
        MissionConfig {
            workload: Workload::Exploration,
            max_time: Duration::from_secs(1800),
            ..MissionConfig::navigation_lab(deployment)
        }
    }

    /// A small, fast test arena: 6 × 5 m room, goal 3.5 m away. Used
    /// by the unit tests and the fleet bench as a per-vehicle mission
    /// that completes in well under a minute of virtual time.
    pub fn compact_lab(deployment: Deployment, workload: Workload) -> Self {
        let world = WorldBuilder::new(6.0, 5.0, 0.05)
            .walls()
            .disc(Point2::new(3.0, 2.8), 0.3)
            .build();
        MissionConfig {
            workload,
            deployment,
            goal: Goal::MissionTime,
            policy: PolicyKind::Algorithm1,
            adaptive: true,
            adaptive_parallelism: false,
            pins: PinPolicy::none(),
            seed: 7,
            world,
            start: Pose2D::new(1.0, 2.0, 0.0),
            nav_goal: Point2::new(4.8, 2.0),
            wap: Point2::new(3.0, 4.5),
            wireless: WirelessConfig::default().with_weak_radius(30.0),
            wan_latency_override: None,
            max_time: Duration::from_secs(120),
            dwa_samples: 600,
            slam_particles: 6,
            velocity: VelocityModel::default(),
            battery_wh: None,
            lidar: LidarConfig::default(),
            exploration_speed_cap: 0.3,
            record_traces: true,
            faults: FaultSchedule::none(),
            recovery: RecoveryConfig::default(),
        }
    }
}

/// A velocity-trace sample (Fig. 12 / Fig. 14 series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VelocitySample {
    /// Simulation time (s).
    pub t: f64,
    /// The Eq. 2c maximum velocity in force.
    pub vmax: f64,
    /// Actual vehicle speed.
    pub actual: f64,
    /// Ground-truth position at the sample (for phase analysis).
    pub position: Point2,
}

/// A network-trace sample (Fig. 11 series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetSample {
    /// Simulation time (s).
    pub t: f64,
    /// Downlink packet bandwidth (packets/s).
    pub bandwidth: f64,
    /// Latest observed RTT (ms) — the metric that lies.
    pub rtt_ms: f64,
    /// Signal direction (positive = approaching the WAP).
    pub direction: f64,
    /// Whether the VDP nodes currently run remotely.
    pub remote_active: bool,
}

/// Mission outcome.
#[derive(Debug, Clone)]
pub struct MissionReport {
    /// Whether the mission goal was achieved within the time cap.
    pub completed: bool,
    /// Human-readable completion/failure reason.
    pub reason: String,
    /// Standby/moving decomposition (Eq. 2a).
    pub time: TimeBreakdown,
    /// Per-component energy + total mission time (Fig. 13 content).
    pub energy: EnergyReport,
    /// Distance travelled (m).
    pub distance: f64,
    /// Velocity trace (empty unless `record_traces`).
    pub velocity_trace: Vec<VelocitySample>,
    /// Network trace (empty unless `record_traces`).
    pub net_trace: Vec<NetSample>,
    /// Total Gcycles demanded per node (Table II content).
    pub node_gcycles: Vec<(NodeKind, f64)>,
    /// Mean VDP makespan over the mission.
    pub avg_vdp_makespan: Duration,
    /// Algorithm 2 switches performed.
    pub net_switches: u64,
    /// Mean remote thread count actually used (== deployment threads
    /// unless the §VIII-E governor is active).
    pub avg_threads: f64,
    /// Battery state of charge at mission end, in [0, 1].
    pub battery_soc: f64,
}

impl MissionReport {
    /// Gcycles demanded by one node over the mission.
    pub fn gcycles(&self, kind: NodeKind) -> f64 {
        self.node_gcycles
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |(_, g)| *g)
    }

    /// FNV-1a checksum over the report's full `Debug` rendering —
    /// every field, every trace sample, every formatted digit. Two
    /// reports fingerprint equal iff the simulations behind them were
    /// byte-identical; the fleet determinism tests compare a
    /// one-vehicle fleet against the single-vehicle runner with this.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in format!("{self:?}").bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// Run a mission to completion (or to the time cap).
pub fn run(cfg: MissionConfig) -> MissionReport {
    VehicleSession::new(cfg, Tracer::disabled()).run()
}

/// Run a mission with a [`Tracer`] wired into every subsystem: the
/// buses, the switcher and its link, the Controller, the governor, the
/// Profiler and the energy ledger. The engine drives the tracer's
/// shared virtual clock, so every event is stamped with simulation
/// time and the stream is byte-for-byte deterministic per seed.
pub fn run_traced(cfg: MissionConfig, tracer: Tracer) -> MissionReport {
    VehicleSession::new(cfg, tracer).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgv_sim::energy::Component;

    fn mini_config(deployment: Deployment, workload: Workload) -> MissionConfig {
        MissionConfig::compact_lab(deployment, workload)
    }

    #[test]
    fn local_navigation_reaches_goal() {
        let report = run(mini_config(Deployment::local(), Workload::Navigation));
        assert!(report.completed, "mission failed: {}", report.reason);
        assert!(report.distance > 3.0, "distance {}", report.distance);
        assert!(report.energy.total_joules() > 0.0);
        assert!(report.time.total() > Duration::from_secs(5));
    }

    #[test]
    fn offloaded_navigation_is_faster_and_cheaper() {
        let local = run(mini_config(Deployment::local(), Workload::Navigation));
        let edge = run(mini_config(Deployment::edge_8t(), Workload::Navigation));
        assert!(
            local.completed && edge.completed,
            "{} / {}",
            local.reason,
            edge.reason
        );
        // The headline claims of Fig. 13, directionally.
        assert!(
            edge.time.total() < local.time.total(),
            "edge {} should beat local {}",
            edge.time.total(),
            local.time.total()
        );
        assert!(
            edge.energy.total_joules() < local.energy.total_joules(),
            "edge {} J should beat local {} J",
            edge.energy.total_joules(),
            local.energy.total_joules()
        );
        // Offloading slashes embedded-computer energy specifically.
        // (The mini arena compresses the gap — idle power dominates a
        // short mission; the full-scale factors are checked by the
        // fig13 bench.)
        let ec_local = local.energy.joules(Component::EmbeddedComputer);
        let ec_edge = edge.energy.joules(Component::EmbeddedComputer);
        assert!(ec_edge < ec_local, "EC energy {ec_edge} vs {ec_local}");
    }

    #[test]
    fn offloaded_velocity_cap_is_higher() {
        let local = run(mini_config(Deployment::local(), Workload::Navigation));
        let cloud = run(mini_config(Deployment::cloud_12t(), Workload::Navigation));
        let vmax_local: f64 = local
            .velocity_trace
            .iter()
            .map(|s| s.vmax)
            .fold(0.0, f64::max);
        let vmax_cloud: f64 = cloud
            .velocity_trace
            .iter()
            .map(|s| s.vmax)
            .fold(0.0, f64::max);
        // The mini arena's tiny costmap keeps local VDP times short,
        // so the gap here is modest; the paper-scale 4–5× factor is
        // checked by the fig12 bench on the full lab configuration.
        assert!(
            vmax_cloud > 1.3 * vmax_local,
            "cloud vmax {vmax_cloud} vs local {vmax_local}"
        );
    }

    #[test]
    fn exploration_mission_completes_and_uses_slam() {
        let mut cfg = mini_config(Deployment::edge_8t(), Workload::Exploration);
        cfg.max_time = Duration::from_secs(240);
        let report = run(cfg);
        assert!(report.completed, "exploration failed: {}", report.reason);
        assert!(
            report.gcycles(NodeKind::Slam) > 0.0,
            "SLAM should account cycles"
        );
        assert!(report.gcycles(NodeKind::Exploration) > 0.0);
    }

    #[test]
    fn node_cycle_accounting_covers_pipeline() {
        let report = run(mini_config(Deployment::local(), Workload::Navigation));
        for kind in [
            NodeKind::Localization,
            NodeKind::CostmapGen,
            NodeKind::PathPlanning,
            NodeKind::PathTracking,
            NodeKind::VelocityMux,
        ] {
            assert!(report.gcycles(kind) > 0.0, "{kind} unaccounted");
        }
        // CostmapGen + PathTracking dominate (Table II shape).
        let total: f64 = report.node_gcycles.iter().map(|(_, g)| g).sum();
        let heavy = report.gcycles(NodeKind::CostmapGen) + report.gcycles(NodeKind::PathTracking);
        assert!(heavy / total > 0.8, "ECN share {}", heavy / total);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = run(mini_config(Deployment::edge(), Workload::Navigation));
        let b = run(mini_config(Deployment::edge(), Workload::Navigation));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.distance, b.distance);
        assert_eq!(a.energy.total_joules(), b.energy.total_joules());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_separates_different_runs() {
        let a = run(mini_config(Deployment::edge(), Workload::Navigation));
        let b = run(mini_config(Deployment::local(), Workload::Navigation));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn battery_depletion_aborts_the_mission() {
        let mut cfg = mini_config(Deployment::local(), Workload::Navigation);
        // A toy pack: a few seconds of the ~11 W hotel load.
        cfg.battery_wh = Some(0.02);
        let report = run(cfg);
        assert!(!report.completed);
        assert!(
            report.reason.contains("battery"),
            "reason: {}",
            report.reason
        );
        assert!(report.battery_soc <= 0.0 + 1e-9);
    }

    #[test]
    fn healthy_mission_retains_charge() {
        let report = run(mini_config(Deployment::edge_8t(), Workload::Navigation));
        assert!(report.completed);
        assert!(report.battery_soc > 0.9, "soc {}", report.battery_soc);
    }

    #[test]
    fn report_records_traces() {
        let report = run(mini_config(Deployment::cloud(), Workload::Navigation));
        assert!(!report.velocity_trace.is_empty());
        assert!(!report.net_trace.is_empty());
        assert!(report.avg_vdp_makespan > Duration::ZERO);
    }
}
