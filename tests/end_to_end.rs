//! Cross-crate integration tests: the whole stack assembled through
//! the `cloud-lgv` facade, exercising the paper's claims end to end on
//! small worlds (paper-scale shape checks live in `crates/bench`).

use cloud_lgv::offload::classify::{classify, table2_with_map, table2_without_map};
use cloud_lgv::offload::deploy::Deployment;
use cloud_lgv::offload::mission::{self, MissionConfig, Workload};
use cloud_lgv::offload::model::{Goal, VelocityModel};
use cloud_lgv::offload::policy::{Algorithm1Policy, PinPolicy, PolicyKind};
use cloud_lgv::prelude::*;
use cloud_lgv::sim::energy::Component;
use cloud_lgv::sim::world::WorldBuilder;
use lgv_net::signal::WirelessConfig;

fn mini(deployment: Deployment, workload: Workload) -> MissionConfig {
    let world = WorldBuilder::new(7.0, 5.0, 0.05)
        .walls()
        .disc(Point2::new(3.5, 2.6), 0.3)
        .build();
    MissionConfig {
        workload,
        deployment,
        goal: Goal::MissionTime,
        policy: PolicyKind::Algorithm1,
        adaptive: true,
        adaptive_parallelism: false,
        pins: PinPolicy::none(),
        seed: 99,
        world,
        start: Pose2D::new(1.0, 2.0, 0.0),
        nav_goal: Point2::new(5.8, 2.2),
        wap: Point2::new(3.5, 4.5),
        wireless: WirelessConfig::default().with_weak_radius(30.0),
        wan_latency_override: None,
        max_time: Duration::from_secs(180),
        dwa_samples: 600,
        slam_particles: 8,
        velocity: VelocityModel::default(),
        battery_wh: None,
        lidar: lgv_sim::LidarConfig::default(),
        exploration_speed_cap: 0.3,
        record_traces: true,
        faults: lgv_net::FaultSchedule::none(),
        recovery: cloud_lgv::offload::recovery::RecoveryConfig::default(),
    }
}

#[test]
fn full_stack_navigation_all_deployments_complete() {
    for d in Deployment::evaluation_set() {
        let report = mission::run(mini(d, Workload::Navigation));
        assert!(report.completed, "{} failed: {}", d.label, report.reason);
        assert!(report.energy.total_joules() > 0.0);
    }
}

#[test]
fn offloading_direction_matches_paper_headlines() {
    let local = mission::run(mini(Deployment::local(), Workload::Navigation));
    let best = mission::run(mini(Deployment::edge_8t(), Workload::Navigation));
    assert!(local.completed && best.completed);
    // Fig. 13 directions: less time, less total energy, much less EC
    // energy, motor energy roughly preserved.
    assert!(best.time.total() < local.time.total());
    assert!(best.energy.total_joules() < local.energy.total_joules());
    let motor_ratio =
        best.energy.joules(Component::Motor) / local.energy.joules(Component::Motor).max(1e-9);
    assert!(
        (0.4..2.0).contains(&motor_ratio),
        "motor energy should be roughly preserved, ratio {motor_ratio}"
    );
}

#[test]
fn wireless_energy_appears_only_when_offloaded() {
    let local = mission::run(mini(Deployment::local(), Workload::Navigation));
    let cloud = mission::run(mini(Deployment::cloud(), Workload::Navigation));
    assert_eq!(local.energy.joules(Component::Wireless), 0.0);
    assert!(cloud.energy.joules(Component::Wireless) > 0.0);
    // But the wireless energy stays small (small D_trans, Eq. 1b).
    assert!(
        cloud.energy.joules(Component::Wireless) < 0.05 * cloud.energy.total_joules(),
        "wireless share too large"
    );
}

#[test]
fn dead_zone_static_policy_stalls_adaptive_recovers() {
    // Goal deep in a radio dead zone.
    let world = WorldBuilder::new(18.0, 4.0, 0.05).walls().build();
    let base = |adaptive: bool| {
        let mut cfg = mini(Deployment::cloud_12t(), Workload::Navigation);
        cfg.world = world.clone();
        cfg.start = Pose2D::new(1.0, 2.0, 0.0);
        cfg.nav_goal = Point2::new(16.5, 2.0);
        cfg.wap = Point2::new(1.0, 3.5);
        cfg.wireless = WirelessConfig::default().with_weak_radius(7.0);
        cfg.adaptive = adaptive;
        cfg.max_time = Duration::from_secs(200);
        cfg
    };
    let adaptive = mission::run(base(true));
    let static_policy = mission::run(base(false));
    assert!(
        adaptive.completed,
        "adaptive should finish: {}",
        adaptive.reason
    );
    assert!(adaptive.net_switches >= 1, "Algorithm 2 should have fired");
    // The static policy either fails outright or spends far longer
    // suspended waiting for commands that never arrive.
    if static_policy.completed {
        assert!(
            static_policy.time.standby.as_secs_f64() > 2.0 * adaptive.time.standby.as_secs_f64(),
            "static standby {} vs adaptive {}",
            static_policy.time.standby,
            adaptive.time.standby
        );
    }
}

#[test]
fn exploration_builds_a_map_and_finishes() {
    let mut cfg = mini(Deployment::edge_8t(), Workload::Exploration);
    cfg.max_time = Duration::from_secs(300);
    let report = mission::run(cfg);
    assert!(report.completed, "exploration failed: {}", report.reason);
    // SLAM dominates the cycle ledger (Table II without-map shape).
    let slam = report.gcycles(NodeKind::Slam);
    let total: f64 = report.node_gcycles.iter().map(|(_, g)| g).sum();
    assert!(slam / total > 0.3, "SLAM share {}", slam / total);
}

#[test]
fn energy_goal_vs_time_goal_placements() {
    // Under a bad network, MCT pulls the VDP back local while EC keeps
    // everything offloaded — Algorithm 1's two branches.
    let class = classify(&table2_without_map());
    let bad_net_local = Duration::from_millis(500);
    let bad_net_cloud = Duration::from_millis(800);
    let mct = Algorithm1Policy::new(Goal::MissionTime).plan(&class, bad_net_local, bad_net_cloud);
    let ec = Algorithm1Policy::new(Goal::Energy).plan(&class, bad_net_local, bad_net_cloud);
    assert!(!mct.remote.contains(NodeKind::PathTracking));
    assert!(ec.remote.contains(NodeKind::PathTracking));
    // Both keep the off-path ECN (SLAM) remote.
    assert!(mct.remote.contains(NodeKind::Slam));
    assert!(ec.remote.contains(NodeKind::Slam));
}

#[test]
fn safety_pinning_is_respected_in_missions() {
    let mut cfg = mini(Deployment::cloud_12t(), Workload::Navigation);
    cfg.pins = PinPolicy::safety_critical();
    let report = mission::run(cfg);
    assert!(report.completed, "{}", report.reason);
    // With PathTracking pinned local, the velocity cap stays at the
    // local level despite the cloud deployment.
    let vmax: f64 = report
        .velocity_trace
        .iter()
        .map(|s| s.vmax)
        .fold(0.0, f64::max);
    let unpinned = mission::run(mini(Deployment::cloud_12t(), Workload::Navigation));
    let vmax_unpinned: f64 = unpinned
        .velocity_trace
        .iter()
        .map(|s| s.vmax)
        .fold(0.0, f64::max);
    assert!(
        vmax < vmax_unpinned,
        "pinned {vmax} vs unpinned {vmax_unpinned}"
    );
}

#[test]
fn classification_is_stable_across_workloads() {
    let with_map = classify(&table2_with_map());
    let without_map = classify(&table2_without_map());
    assert_eq!(with_map.ecn.len(), 2);
    assert_eq!(without_map.ecn.len(), 3);
    assert!(without_map.t1.contains(NodeKind::Slam));
}
